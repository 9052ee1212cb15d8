// Package bench is the experiment harness: one runner per table and figure
// of the Sunflow paper's evaluation (§5), producing the same rows and series
// the paper reports. Runners are deterministic in Config.Seed and scale down
// gracefully (fewer Coflows, narrower shuffles) for quick runs and Go
// benchmarks.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/obs"
	"sunflow/internal/obs/span"
	"sunflow/internal/trace"
	"sunflow/internal/workload"
)

// Gbps is one gigabit per second.
const Gbps = 1e9

// Config scopes an experiment run.
type Config struct {
	// Seed drives trace generation and perturbation.
	Seed int64
	// Ports is the fabric size. Zero selects the paper's 150.
	Ports int
	// Coflows is the workload size. Zero selects the paper's 526.
	Coflows int
	// MaxWidth caps shuffle fan-in/out in the generated trace. Zero selects
	// the generator default.
	MaxWidth int
	// Dist selects the workload distribution (trace.DistFacebook,
	// trace.DistGoogle, trace.DistIncast). Empty selects the Facebook
	// profile.
	Dist string
	// LinkBps is the default link bandwidth. Zero selects 1 Gbps (the
	// trace's original setting).
	LinkBps float64
	// Delta is the default reconfiguration delay. Zero selects 10 ms
	// (typical 3D-MEMS).
	Delta float64
	// Workers bounds experiment parallelism. Zero selects GOMAXPROCS;
	// negative values are clamped to 1 (serial).
	Workers int
	// Obs optionally observes the runs. Runners thread per-scheduler scopes
	// ("sunflow", "varys", "aalo", "solstice", "tms", "edmond") through the
	// simulators so one observer separates the schedulers' counters. Nil
	// disables instrumentation.
	Obs *obs.Observer `json:"-"`
	// Prof optionally records profiling spans. Runners create one span.Stack
	// per scheduler run (stacks are single-goroutine) scoped like Obs, so
	// span aggregates land beside the matching counters. Nil disables span
	// recording.
	Prof *span.Profiler `json:"-"`
}

// WithDefaults fills unset fields with the paper's settings.
func (c Config) WithDefaults() Config {
	if c.Ports == 0 {
		c.Ports = 150
	}
	if c.Coflows == 0 {
		c.Coflows = 526
	}
	if c.LinkBps == 0 {
		c.LinkBps = Gbps
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 0 {
		c.Workers = 1
	}
	return c
}

// options returns Sunflow options for the configured fabric at bandwidth
// bps: δ converts to ticks through core.Nanos.
func (c Config) options(bps, delta float64) (core.Options, error) {
	d, err := core.Nanos(delta)
	if err != nil {
		return core.Options{}, fmt.Errorf("bench: reconfiguration delay: %w", err)
	}
	return core.Options{LinkBps: bps, Delta: d}, nil
}

// Workload generates the evaluation workload: the Facebook-like trace with
// the ±5% size perturbation and 1 MB floor of §5.1 applied.
func (c Config) Workload() []*coflow.Coflow {
	c = c.WithDefaults()
	tr := trace.Generator{
		Ports:    c.Ports,
		Coflows:  c.Coflows,
		MaxWidth: c.MaxWidth,
		Seed:     c.Seed,
		Dist:     c.Dist,
	}.Trace()
	return workload.Perturb(tr.Coflows, 0.05, workload.DefaultFloorBytes, c.Seed+1)
}

// compact remaps a Coflow's ports onto dense index ranges, returning the
// remapped Coflow and the fabric size needed to carry it. Input and output
// sides of an optical switch port are independent (§2.1), so senders and
// receivers are remapped separately and the fabric only needs
// max(#senders, #receivers) ports. Intra-Coflow experiments run each Coflow
// alone, so dropping unused ports changes nothing but shrinks the matrices
// the decomposition baselines work on.
func compact(c *coflow.Coflow) (*coflow.Coflow, int) {
	src := map[int]int{}
	for i, p := range c.Senders() {
		src[p] = i
	}
	dst := map[int]int{}
	for i, p := range c.Receivers() {
		dst[p] = i
	}
	flows := make([]coflow.Flow, 0, len(c.Flows))
	for _, f := range c.Flows {
		if f.Bytes <= 0 {
			continue
		}
		flows = append(flows, coflow.Flow{Src: src[f.Src], Dst: dst[f.Dst], Bytes: f.Bytes})
	}
	n := len(src)
	if len(dst) > n {
		n = len(dst)
	}
	if n == 0 {
		n = 1
	}
	return coflow.New(c.ID, c.Arrival, flows), n
}

// ParallelEach runs fn over [0, n) on Config.Workers goroutines. It is the
// worker pool every sweep in this package runs on, exported so the
// experiment-matrix engine (internal/matrix) can execute its cells on the
// same pool.
func (c Config) ParallelEach(n int, fn func(i int)) {
	c.parallelEach(n, fn)
}

// Compact is the exported form of compact, for harnesses (internal/matrix)
// that replay single Coflows through the decomposition baselines.
func Compact(c *coflow.Coflow) (*coflow.Coflow, int) {
	return compact(c)
}

// parallelEach runs fn over [0, n) on Config.Workers goroutines.
func (c Config) parallelEach(n int, fn func(i int)) {
	c = c.WithDefaults()
	workers := c.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// parallelEachErr runs fn over [0, n) on Config.Workers goroutines and
// returns the error of the lowest index that failed, so the reported error
// is deterministic regardless of goroutine interleaving. All indices run
// even after a failure (runs are cheap and side-effect free).
func (c Config) parallelEachErr(n int, fn func(i int) error) error {
	errs := make([]error, n)
	c.parallelEach(n, func(i int) {
		errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// table renders rows of columns with aligned widths.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	all := append([][]string{header}, rows...)
	for _, row := range all {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	for r, row := range all {
		for i, cell := range row {
			fmt.Fprintf(&sb, "%-*s", width[i]+2, cell)
		}
		sb.WriteString("\n")
		if r == 0 {
			for i := range header {
				sb.WriteString(strings.Repeat("-", width[i]) + "  ")
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// sortedIDs returns map keys in ascending order.
func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
