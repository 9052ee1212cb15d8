package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
)

// drainScanner pulls every job out of a Scanner, mirroring ParseJobs' result
// shape.
func drainScanner(r io.Reader, base Base) (ports int, jobs []Job, err error) {
	sc, err := NewScanner(r, base)
	if err != nil {
		return 0, nil, err
	}
	for sc.Next() {
		jobs = append(jobs, sc.Job())
	}
	return sc.Ports(), jobs, sc.Err()
}

// TestQuickScannerMatchesParseJobs streams generated workloads — zero-based
// as written and shifted up into one-based form — through the AutoBase
// Scanner and demands the exact jobs ParseJobs produces.
func TestQuickScannerMatchesParseJobs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Generator{
			Ports:      2 + rng.Intn(12),
			Coflows:    1 + rng.Intn(40),
			HorizonSec: 1 + 10*rng.Float64(),
			Seed:       rng.Int63(),
			MaxWidth:   2 + rng.Intn(6),
		}
		ports, jobs := g.Jobs()
		var buf bytes.Buffer
		if err := WriteJobs(&buf, ports, jobs); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		text := buf.String()
		if rng.Intn(2) == 0 {
			text = shiftUp(t, ports, jobs)
		}

		wantPorts, wantJobs, wantErr := ParseJobs(strings.NewReader(text))
		gotPorts, gotJobs, gotErr := drainScanner(strings.NewReader(text), AutoBase)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d: ParseJobs err %v, Scanner err %v", seed, wantErr, gotErr)
		}
		if wantErr != nil {
			return wantErr.Error() == gotErr.Error()
		}
		if gotPorts != wantPorts || !reflect.DeepEqual(gotJobs, wantJobs) {
			t.Fatalf("seed %d: scanner diverged from ParseJobs", seed)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// shiftUp rewrites a workload one-based, forcing a job onto port numPorts so
// base detection has something to find.
func shiftUp(t *testing.T, ports int, jobs []Job) string {
	t.Helper()
	up := make([]Job, len(jobs))
	for i, j := range jobs {
		up[i] = j
		up[i].Mappers = append([]int(nil), j.Mappers...)
		up[i].Reducers = append([]int(nil), j.Reducers...)
		for k := range up[i].Mappers {
			up[i].Mappers[k]++
		}
		for k := range up[i].Reducers {
			up[i].Reducers[k]++
		}
	}
	// Pin one record to the top port so usedMax == ports on some line.
	up[0].Mappers[0] = ports
	var buf bytes.Buffer
	if err := WriteJobs(&buf, ports, up); err != nil {
		t.Fatalf("write shifted: %v", err)
	}
	return buf.String()
}

func TestScannerExplicitBases(t *testing.T) {
	oneBased := "3 2\n1 0 2 1 2 1 3:4\n2 1500 1 3 2 1:2 2:6\n"

	t.Run("one_based_shifts", func(t *testing.T) {
		_, jobs, err := drainScanner(strings.NewReader(oneBased), OneBased)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := ParseJobs(strings.NewReader(oneBased))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jobs, want) {
			t.Fatalf("OneBased scan %+v, ParseJobs %+v", jobs, want)
		}
	})

	t.Run("zero_based_rejects_top_port", func(t *testing.T) {
		_, _, err := drainScanner(strings.NewReader(oneBased), ZeroBased)
		if err == nil || !strings.Contains(err.Error(), "outside [0,3)") {
			t.Fatalf("ZeroBased accepted port 3 on a 3-port fabric: %v", err)
		}
	})

	t.Run("zero_based_accepts_sample", func(t *testing.T) {
		ports, jobs, err := drainScanner(strings.NewReader(sample), ZeroBased)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _ := ParseJobs(strings.NewReader(sample))
		if ports != 3 || !reflect.DeepEqual(jobs, want) {
			t.Fatalf("ZeroBased scan diverged: %+v", jobs)
		}
	})

	t.Run("explicit_base_catches_duplicates", func(t *testing.T) {
		dup := "3 2\n1 0 1 0 1 1:4\n1 10 1 0 1 2:4\n"
		_, _, err := drainScanner(strings.NewReader(dup), ZeroBased)
		if err == nil || !strings.Contains(err.Error(), "duplicate job id 1") {
			t.Fatalf("duplicate id not caught: %v", err)
		}
	})

	t.Run("explicit_base_checks_count", func(t *testing.T) {
		short := "3 2\n1 0 1 0 1 1:4\n"
		_, _, err := drainScanner(strings.NewReader(short), ZeroBased)
		if err == nil || !strings.Contains(err.Error(), "promised 2 jobs, found 1") {
			t.Fatalf("count mismatch not caught: %v", err)
		}
	})
}

// nonSeeker hides the Seek method of an underlying reader, modeling a pipe.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestScannerAutoBaseNeedsSeeker(t *testing.T) {
	_, err := NewScanner(nonSeeker{strings.NewReader(sample)}, AutoBase)
	if err == nil || !strings.Contains(err.Error(), "io.ReadSeeker") {
		t.Fatalf("AutoBase on a pipe: %v", err)
	}
	// The same input streams fine when the base is declared.
	_, jobs, err := drainScanner(nonSeeker{strings.NewReader(sample)}, ZeroBased)
	if err != nil || len(jobs) != 2 {
		t.Fatalf("ZeroBased on a pipe: jobs=%d err=%v", len(jobs), err)
	}
}

func TestCoflowSourceMatchesParse(t *testing.T) {
	want, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(strings.NewReader(sample), AutoBase)
	if err != nil {
		t.Fatal(err)
	}
	src := sc.Coflows()
	var got []*coflow.Coflow
	for {
		c, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		got = append(got, c)
	}
	if !reflect.DeepEqual(got, want.Coflows) {
		t.Fatalf("streamed coflows diverge from Parse: %+v vs %+v", got, want.Coflows)
	}
}

func TestCoflowSourceSurfacesErrors(t *testing.T) {
	bad := "3 2\n1 0 1 0 1 1:4\n"
	sc, err := NewScanner(strings.NewReader(bad), ZeroBased)
	if err != nil {
		t.Fatal(err)
	}
	src := sc.Coflows()
	for {
		c, err := src.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "promised 2 jobs") {
				t.Fatalf("wrong error: %v", err)
			}
			return
		}
		if c == nil {
			t.Fatal("stream ended cleanly on a truncated file")
		}
	}
}

// TestQuickStreamMatchesJobs checks Generator.Stream is bit-identical to
// Generator.Jobs across random configurations.
func TestQuickStreamMatchesJobs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Generator{
			Ports:      1 + rng.Intn(40),
			Coflows:    1 + rng.Intn(200),
			HorizonSec: 0.1 + 100*rng.Float64(),
			Seed:       rng.Int63(),
			MaxWidth:   2 + rng.Intn(20),
			Dist:       KnownDists[rng.Intn(len(KnownDists))],
		}
		ports, want := g.Jobs()
		st := g.Stream()
		if st.Ports() != ports || st.Len() != len(want) {
			t.Fatalf("seed %d: stream header %d/%d, jobs %d/%d", seed, st.Ports(), st.Len(), ports, len(want))
		}
		got := make([]Job, 0, st.Len())
		for {
			j, ok := st.Next()
			if !ok {
				break
			}
			got = append(got, j)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d: job %d diverged:\n  stream %+v\n  jobs   %+v", seed, i, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("seed %d: stream yielded %d jobs, want %d", seed, len(got), len(want))
		}
		// Exhausted streams stay exhausted.
		if _, ok := st.Next(); ok {
			t.Fatalf("seed %d: stream yielded past its length", seed)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDefaultsMatchJobs covers the zero-value configuration, whose
// defaults are filled inside both paths.
func TestStreamDefaultsMatchJobs(t *testing.T) {
	g := Generator{Seed: 42, Coflows: 60, Ports: 30}
	_, want := g.Jobs()
	st := g.Stream()
	for i := range want {
		j, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended at %d of %d", i, len(want))
		}
		if !reflect.DeepEqual(j, want[i]) {
			t.Fatalf("job %d diverged", i)
		}
	}
}

// TestGenSourceStreamsOrdered drains the generator's Coflow source and checks
// the (arrival, id) ordering the simulator requires.
func TestGenSourceStreamsOrdered(t *testing.T) {
	g := Generator{Seed: 9, Coflows: 80, Ports: 20}
	src := g.Stream().Coflows()
	prevArrival, prevID := -1.0, -1
	n := 0
	for {
		c, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			break
		}
		if c.Arrival < prevArrival || (c.Arrival == prevArrival && c.ID <= prevID) {
			t.Fatalf("coflow %d at %v out of order after %d at %v", c.ID, c.Arrival, prevID, prevArrival)
		}
		prevArrival, prevID = c.Arrival, c.ID
		n++
	}
	if n != 80 {
		t.Fatalf("streamed %d coflows, want 80", n)
	}
}

func TestJobWriterCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	jw, err := NewJobWriter(&buf, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := jw.Write(Job{ID: 1, Mappers: []int{0}, Reducers: []int{1}, ReducerMB: []float64{4}}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Flush(); err == nil || !strings.Contains(err.Error(), "promised 2 jobs, wrote 1") {
		t.Fatalf("short flush: %v", err)
	}
}

// TestJobWriterStreamsRoundTrip writes a generated workload record by record
// and parses it back, confirming the streamed file is exactly what WriteJobs
// would have produced.
func TestJobWriterStreamsRoundTrip(t *testing.T) {
	g := Generator{Seed: 5, Coflows: 50, Ports: 25}
	ports, jobs := g.Jobs()

	var whole bytes.Buffer
	if err := WriteJobs(&whole, ports, jobs); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	jw, err := NewJobWriter(&streamed, ports, g.Coflows)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stream()
	for {
		j, ok := st.Next()
		if !ok {
			break
		}
		if err := jw.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), whole.Bytes()) {
		t.Fatal("streamed bytes differ from WriteJobs")
	}
}

// FuzzScannerMatchesParseJobs feeds arbitrary bytes to both the whole-file
// parser and the AutoBase Scanner: they must accept the same inputs, produce
// the same jobs, and report the same first error.
func FuzzScannerMatchesParseJobs(f *testing.F) {
	f.Add(sample)
	f.Add("3 1\n1 0 1 0 1 0:4\n")
	f.Add("3 1\n1 0 2 1 3 1 2:4\n")               // one-based
	f.Add("3 1\n1 0 1 0 1 1:NaN\n")               // NaN size
	f.Add("3 2\n1 0 1 0 1 1:4\n1 10 1 0 1 2:4\n") // duplicate id
	f.Add("3 1\n1 0 1 5 1 1:4\n")                 // port out of range
	f.Add("2 3\n1 0 1 0 1 1:1\n")                 // count mismatch
	f.Fuzz(func(t *testing.T, in string) {
		wantPorts, wantJobs, wantErr := ParseJobs(strings.NewReader(in))
		gotPorts, gotJobs, gotErr := drainScanner(strings.NewReader(in), AutoBase)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("ParseJobs err %v, Scanner err %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("errors diverge:\n  ParseJobs: %v\n  Scanner:   %v", wantErr, gotErr)
			}
			return
		}
		if gotPorts != wantPorts {
			t.Fatalf("ports %d vs %d", gotPorts, wantPorts)
		}
		if len(gotJobs) != len(wantJobs) || (len(wantJobs) > 0 && !reflect.DeepEqual(gotJobs, wantJobs)) {
			t.Fatalf("jobs diverge: %d vs %d records", len(gotJobs), len(wantJobs))
		}
	})
}

// TestScannerLongLine feeds a job line several times longer than the line
// scanner's initial buffer: the buffer must grow and both readers must still
// return the job whole.
func TestScannerLongLine(t *testing.T) {
	const ports = 40000
	job := Job{ID: 7, ArrivalMillis: 3, Reducers: []int{ports - 1}, ReducerMB: []float64{5}}
	for p := 0; p < ports-1; p++ {
		job.Mappers = append(job.Mappers, p)
	}
	var buf bytes.Buffer
	if err := WriteJobs(&buf, ports, []Job{job}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 3*(64<<10) {
		t.Fatalf("trace is %d bytes, want a line well past the initial buffer", buf.Len())
	}
	_, want, err := ParseJobs(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := drainScanner(bytes.NewReader(buf.Bytes()), AutoBase)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got, want) || len(got[0].Mappers) != ports-1 {
		t.Fatalf("scanner read %d jobs, want the one job with %d mappers", len(got), ports-1)
	}
}
