package bench

import (
	"fmt"
	"math/rand"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/matching"
	"sunflow/internal/solstice"
	"sunflow/internal/tms"
)

// Table3Row is one fabric size of the Table 3 scheduler-cost comparison.
// The paper states asymptotic complexities — Edmond O(N³), TMS O(N⁴·⁵),
// Solstice O(N³log²N), Sunflow O(|C|²) — and this experiment measures the
// wall-clock scheduling (not execution) time of each on a dense Coflow that
// covers all N² circuits, so |C| = N².
type Table3Row struct {
	Ports    int
	Flows    int
	Sunflow  time.Duration
	Solstice time.Duration
	TMS      time.Duration
	Edmond   time.Duration // one maximum-weight matching, the per-slot cost
}

// Table3 measures scheduling cost on dense Coflows over growing fabrics.
func Table3(cfg Config, sizes []int) ([]Table3Row, error) {
	cfg = cfg.WithDefaults()
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64}
	}
	opts, err := cfg.options(cfg.LinkBps, cfg.Delta)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var rows []Table3Row
	for _, n := range sizes {
		var flows []coflow.Flow
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				flows = append(flows, coflow.Flow{Src: i, Dst: j, Bytes: float64(1+rng.Intn(64)) * 1e6})
			}
		}
		c := coflow.New(n, 0, flows)
		row := Table3Row{Ports: n, Flows: n * n}

		var err error
		row.Sunflow = timeIt(func() error {
			_, e := core.IntraCoflow(core.NewPRT(n), c, opts)
			return e
		}, &err)
		if err != nil {
			return rows, fmt.Errorf("bench: table3 sunflow on N=%d: %w", n, err)
		}
		row.Solstice = timeIt(func() error {
			_, _, e := solstice.Schedule(c, n, solstice.Options{LinkBps: cfg.LinkBps, Delta: cfg.Delta})
			return e
		}, &err)
		if err != nil {
			return rows, fmt.Errorf("bench: table3 solstice on N=%d: %w", n, err)
		}
		row.TMS = timeIt(func() error {
			_, e := tms.Schedule(c.DemandMatrix(n), tms.Options{LinkBps: cfg.LinkBps, Delta: cfg.Delta})
			return e
		}, &err)
		if err != nil {
			return rows, fmt.Errorf("bench: table3 tms on N=%d: %w", n, err)
		}
		row.Edmond = timeIt(func() error {
			matching.MaxWeightMatching(c.DemandMatrix(n))
			return nil
		}, &err)
		rows = append(rows, row)
	}
	return rows, nil
}

// timeIt returns fn's wall-clock duration, storing its error through errp.
func timeIt(fn func() error, errp *error) time.Duration {
	start := time.Now()
	*errp = fn()
	return time.Since(start)
}

// FormatTable3 renders the scheduler cost comparison.
func FormatTable3(rows []Table3Row) string {
	header := []string{"N", "|C|", "Sunflow", "Solstice", "TMS", "Edmond/slot"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Ports),
			fmt.Sprintf("%d", r.Flows),
			r.Sunflow.Round(time.Microsecond).String(),
			r.Solstice.Round(time.Microsecond).String(),
			r.TMS.Round(time.Microsecond).String(),
			r.Edmond.Round(time.Microsecond).String(),
		})
	}
	return "Table 3 — scheduling cost on dense Coflows (|C| = N²)\n" + table(header, out) +
		"paper complexities: Edmond O(N³), TMS O(N⁴·⁵), Solstice O(N³log²N), Sunflow O(|C|²)\n"
}
