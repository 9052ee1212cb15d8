package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sunflow/internal/coflow"
)

// Base selects how a Scanner interprets the port numbers of a benchmark file.
type Base int

const (
	// AutoBase reproduces ParseJobs' whole-file detection: a file that
	// mentions port numPorts is treated as 1-based and shifted down. Because
	// the decision depends on every record, the Scanner makes a validation
	// pass over the input first, so AutoBase requires an io.ReadSeeker.
	AutoBase Base = iota
	// ZeroBased trusts the ports as written, enabling single-pass streaming
	// from non-seekable inputs (pipes, generators).
	ZeroBased
	// OneBased shifts every port down by one, single-pass.
	OneBased
)

// Scanner streams a benchmark-format workload one Job at a time, so a
// million-Coflow trace never has to be resident as a whole: the only O(jobs)
// state is the duplicate-id set (and that, too, is dropped in AutoBase mode,
// which already validated ids in its first pass). In AutoBase mode the
// Scanner accepts exactly the files ParseJobs accepts and reports its errors
// verbatim, just surfaced per record rather than per file; the explicit-base
// modes check ids and port ranges as records stream by.
//
// Usage follows bufio.Scanner:
//
//	sc, err := NewScanner(f, AutoBase)
//	for sc.Next() {
//	    j := sc.Job()
//	    ...
//	}
//	err = sc.Err()
type Scanner struct {
	sc        *bufio.Scanner
	ports     int
	numJobs   int
	shift     bool
	validated bool
	seen      map[int]bool
	job       Job
	err       error
	line      int
	n         int
	done      bool
}

// NewScanner reads the header and prepares to stream jobs from r. In
// AutoBase mode r must be an io.ReadSeeker: the whole input is validated —
// exactly as ParseJobs would, including duplicate-id and job-count checks —
// to settle the port base, then rewound for streaming.
func NewScanner(r io.Reader, base Base) (*Scanner, error) {
	s := &Scanner{shift: base == OneBased}
	if base == AutoBase {
		rs, ok := r.(io.ReadSeeker)
		if !ok {
			return nil, fmt.Errorf("trace: auto-base scanning needs an io.ReadSeeker; use ZeroBased or OneBased for pipes")
		}
		oneBased, err := detectBase(rs)
		if err != nil {
			return nil, err
		}
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		s.shift = oneBased
		s.validated = true
	}
	s.sc = newLineScanner(r)
	ports, numJobs, err := readHeader(s.sc)
	if err != nil {
		return nil, err
	}
	s.ports, s.numJobs = ports, numJobs
	s.line = 1
	if !s.validated {
		s.seen = map[int]bool{}
	}
	return s, nil
}

// newLineScanner returns a line scanner accepting lines up to 16 MiB. The
// buffer starts at 64 KiB, far above a typical job line, and grows only for
// a longer one: an auto-base scan builds two scanners per trace, and a
// larger up-front buffer is fresh memory to zero, and possibly to fault in,
// on every scan.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<24)
	return sc
}

// readHeader parses the "<ports> <jobs>" line.
func readHeader(sc *bufio.Scanner) (ports, numJobs int, err error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, 0, fmt.Errorf("trace: %w", err)
		}
		return 0, 0, fmt.Errorf("trace: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 {
		return 0, 0, fmt.Errorf("trace: header must be \"<ports> <jobs>\", got %q", sc.Text())
	}
	ports, err = strconv.Atoi(header[0])
	if err != nil || ports <= 0 {
		return 0, 0, fmt.Errorf("trace: bad port count %q", header[0])
	}
	numJobs, err = strconv.Atoi(header[1])
	if err != nil || numJobs < 0 {
		return 0, 0, fmt.Errorf("trace: bad job count %q", header[1])
	}
	return ports, numJobs, nil
}

// detectBase replicates ParseJobs' record loop — line parsing, duplicate-id
// and job-count checks, base detection — without retaining the jobs. After a
// nil return, a second pass can stream records and the only error left to
// discover is a port-range violation, which surfaces at the offending job in
// the same order ParseJobs would report it.
func detectBase(r io.Reader) (oneBased bool, err error) {
	sc := newLineScanner(r)
	ports, numJobs, err := readHeader(sc)
	if err != nil {
		return false, err
	}
	line := 1
	n := 0
	seen := map[int]bool{}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		j, usedMax, err := parseJobLine(text, ports)
		if err != nil {
			return false, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if seen[j.ID] {
			return false, fmt.Errorf("trace: line %d: duplicate job id %d", line, j.ID)
		}
		seen[j.ID] = true
		if usedMax == ports {
			oneBased = true
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("trace: %w", err)
	}
	if n != numJobs {
		return false, fmt.Errorf("trace: header promised %d jobs, found %d", numJobs, n)
	}
	return oneBased, nil
}

// Ports returns the fabric size from the header.
func (s *Scanner) Ports() int { return s.ports }

// NumJobs returns the job count the header promises.
func (s *Scanner) NumJobs() int { return s.numJobs }

// Next advances to the next job record. It returns false at the end of the
// input or on the first error; Err tells the two apart.
func (s *Scanner) Next() bool {
	if s.err != nil || s.done {
		return false
	}
	for s.sc.Scan() {
		s.line++
		text := strings.TrimSpace(s.sc.Text())
		if text == "" {
			continue
		}
		j, _, err := parseJobLine(text, s.ports)
		if err != nil {
			s.err = fmt.Errorf("trace: line %d: %w", s.line, err)
			return false
		}
		if s.seen != nil {
			if s.seen[j.ID] {
				s.err = fmt.Errorf("trace: line %d: duplicate job id %d", s.line, j.ID)
				return false
			}
			s.seen[j.ID] = true
		}
		if s.shift {
			for k := range j.Mappers {
				j.Mappers[k]--
			}
			for k := range j.Reducers {
				j.Reducers[k]--
			}
		}
		for _, p := range j.Mappers {
			if p < 0 || p >= s.ports {
				s.err = fmt.Errorf("trace: job %d references port %d outside [0,%d)", j.ID, p, s.ports)
				return false
			}
		}
		for _, p := range j.Reducers {
			if p < 0 || p >= s.ports {
				s.err = fmt.Errorf("trace: job %d references port %d outside [0,%d)", j.ID, p, s.ports)
				return false
			}
		}
		s.n++
		s.job = j
		return true
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("trace: %w", err)
		return false
	}
	s.done = true
	if s.n != s.numJobs {
		s.err = fmt.Errorf("trace: header promised %d jobs, found %d", s.numJobs, s.n)
	}
	return false
}

// Job returns the record the last successful Next parsed. The returned Job's
// slices are owned by the caller; the Scanner does not reuse them.
func (s *Scanner) Job() Job { return s.job }

// Err returns the first error encountered, nil at a clean end of input.
func (s *Scanner) Err() error { return s.err }

// CoflowSource adapts a Scanner into a streaming Coflow source compatible
// with sim.Source: Next returns one expanded Coflow per job in file order,
// (nil, nil) at the end. The simulator additionally requires the stream to
// be ordered by (arrival, id) — true of generated traces, and of the
// Facebook benchmark file — and rejects it otherwise.
type CoflowSource struct {
	s *Scanner
}

// Coflows returns a streaming view of the remaining jobs as Coflows.
func (s *Scanner) Coflows() *CoflowSource { return &CoflowSource{s: s} }

// Next yields the next job as a Coflow, (nil, nil) at end of input.
func (c *CoflowSource) Next() (*coflow.Coflow, error) {
	if c.s.Next() {
		return c.s.Job().Coflow(), nil
	}
	if err := c.s.Err(); err != nil {
		return nil, err
	}
	return nil, nil
}
