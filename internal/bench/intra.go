package bench

import (
	"fmt"
	"math"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/edmond"
	"sunflow/internal/fabric"
	"sunflow/internal/solstice"
	"sunflow/internal/stats"
	"sunflow/internal/tms"
	"sunflow/internal/workload"
)

// intraSample is one Coflow's outcome in a serialized intra-Coflow replay
// (§5.1: one Coflow in the fabric at a time, arrivals ignored).
type intraSample struct {
	Class     coflow.Class
	Flows     int
	PAvg      float64 // average processing time pavg (§5.3.2)
	TpL, TcL  float64
	SunCCT    float64
	SunSwitch int
	SolCCT    float64
	SolSwitch int
}

// runIntra replays every Coflow alone through Sunflow and (optionally)
// Solstice at the given bandwidth and delta.
func runIntra(cfg Config, cs []*coflow.Coflow, linkBps, delta float64, withSolstice bool) ([]intraSample, error) {
	cfg = cfg.WithDefaults()
	// The obs metrics are atomic, so the scoped observers are shared safely
	// by the parallel workers.
	sunObs := cfg.Obs.Scoped("sunflow")
	solObs := cfg.Obs.Scoped("solstice")
	opts, err := cfg.options(linkBps, delta)
	if err != nil {
		return nil, err
	}
	out := make([]intraSample, len(cs))
	err = cfg.parallelEachErr(len(cs), func(i int) error {
		c, n := compact(cs[i])
		s := intraSample{
			Class: c.Classify(),
			Flows: c.NumFlows(),
			PAvg:  c.AvgProcTime(linkBps),
			TpL:   c.PacketLowerBound(linkBps),
			TcL:   c.CircuitLowerBound(linkBps, delta),
		}
		// Stacks are single-goroutine, so each parallel worker iteration
		// records through fresh ones (nil Prof makes them free no-ops).
		o := opts
		o.Obs, o.Prof = sunObs, cfg.Prof.NewStack("sunflow")
		sched, err := core.IntraCoflow(core.NewPRT(n), c, o)
		if err != nil {
			return fmt.Errorf("bench: sunflow on coflow %d: %w", c.ID, err)
		}
		s.SunCCT = sched.CCT(0)
		s.SunSwitch = sched.SwitchingCount()
		if withSolstice {
			res, _, err := solstice.Run(c, n, solstice.Options{LinkBps: linkBps, Delta: delta, Obs: solObs, Prof: cfg.Prof.NewStack("solstice")}, fabric.NotAllStop)
			if err != nil {
				return fmt.Errorf("bench: solstice on coflow %d: %w", c.ID, err)
			}
			s.SolCCT = res.Finish
			s.SolSwitch = res.SwitchCount
		}
		out[i] = s
		return nil
	})
	return out, err
}

// Fig3Row is one bandwidth setting of Figure 3: the distribution of CCT/TcL
// for Sunflow and Solstice.
type Fig3Row struct {
	LinkBps                   float64
	SunAvg, SunP95, SunMax    float64
	SolAvg, SolP95, SolMax    float64
	SunWithinFactor2, Coflows int
	SolsticeSlowerThanSunflow int
}

// Fig3 reproduces Figure 3: intra-Coflow CCT against the circuit lower
// bound TcL for B ∈ {1, 10, 100} Gbps at δ = 10 ms, for Sunflow and
// Solstice.
func Fig3(cfg Config) ([]Fig3Row, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	var rows []Fig3Row
	for _, b := range []float64{Gbps, 10 * Gbps, 100 * Gbps} {
		samples, err := runIntra(cfg, cs, b, cfg.Delta, true)
		if err != nil {
			return rows, fmt.Errorf("bench: fig3 at B=%.0f: %w", b, err)
		}
		var sun, sol []float64
		row := Fig3Row{LinkBps: b, Coflows: len(samples)}
		for _, s := range samples {
			if s.TcL <= 0 {
				continue
			}
			rs, rl := s.SunCCT/s.TcL, s.SolCCT/s.TcL
			sun = append(sun, rs)
			sol = append(sol, rl)
			if rs < 2 {
				row.SunWithinFactor2++
			}
			if s.SolCCT > s.SunCCT+1e-9 {
				row.SolsticeSlowerThanSunflow++
			}
		}
		row.SunAvg, row.SunP95, row.SunMax = stats.Mean(sun), stats.Percentile(sun, 95), stats.Max(sun)
		row.SolAvg, row.SolP95, row.SolMax = stats.Mean(sol), stats.Percentile(sol, 95), stats.Max(sol)
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig3 renders Figure 3 rows.
func FormatFig3(rows []Fig3Row) string {
	header := []string{"B", "Sunflow avg", "p95", "max", "Solstice avg", "p95", "max", "Sun<2x"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.0f Gbps", r.LinkBps/Gbps),
			fmt.Sprintf("%.2f", r.SunAvg), fmt.Sprintf("%.2f", r.SunP95), fmt.Sprintf("%.2f", r.SunMax),
			fmt.Sprintf("%.2f", r.SolAvg), fmt.Sprintf("%.2f", r.SolP95), fmt.Sprintf("%.2f", r.SolMax),
			fmt.Sprintf("%d/%d", r.SunWithinFactor2, r.Coflows),
		})
	}
	return "Figure 3 — intra-Coflow CCT / TcL (δ = 10 ms)\n" + table(header, out)
}

// Fig4Result summarizes Figure 4: CCT over both lower bounds for
// many-to-many Coflows.
type Fig4Result struct {
	M2MCoflows     int
	SunTcLAvg      float64
	SunTcLP95      float64
	SunTpLAvg      float64
	SunTpLP95      float64
	SolTcLAvg      float64
	SolTcLP95      float64
	SunUnderTcL2   float64 // fraction with CCT/TcL < 2
	SunUnderTpL4p5 float64 // fraction with CCT/TpL < 4.5
	SunTcLCDF      []stats.CDFPoint
	SolTcLCDF      []stats.CDFPoint
}

// Fig4 reproduces Figure 4: the distribution of CCT/TcL and CCT/TpL on
// many-to-many Coflows for Sunflow and Solstice at B = 1 Gbps, δ = 10 ms.
func Fig4(cfg Config) (Fig4Result, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	samples, err := runIntra(cfg, cs, cfg.LinkBps, cfg.Delta, true)
	if err != nil {
		return Fig4Result{}, fmt.Errorf("bench: fig4: %w", err)
	}
	var sunTcL, sunTpL, solTcL []float64
	for _, s := range samples {
		if s.Class != coflow.ManyToMany || s.TcL <= 0 || s.TpL <= 0 {
			continue
		}
		sunTcL = append(sunTcL, s.SunCCT/s.TcL)
		sunTpL = append(sunTpL, s.SunCCT/s.TpL)
		solTcL = append(solTcL, s.SolCCT/s.TcL)
	}
	return Fig4Result{
		M2MCoflows:     len(sunTcL),
		SunTcLAvg:      stats.Mean(sunTcL),
		SunTcLP95:      stats.Percentile(sunTcL, 95),
		SunTpLAvg:      stats.Mean(sunTpL),
		SunTpLP95:      stats.Percentile(sunTpL, 95),
		SolTcLAvg:      stats.Mean(solTcL),
		SolTcLP95:      stats.Percentile(solTcL, 95),
		SunUnderTcL2:   stats.FractionBelow(sunTcL, 2),
		SunUnderTpL4p5: stats.FractionBelow(sunTpL, 4.5),
		SunTcLCDF:      stats.CDF(sunTcL),
		SolTcLCDF:      stats.CDF(solTcL),
	}, nil
}

// Format renders the Figure 4 summary.
func (r Fig4Result) Format() string {
	return fmt.Sprintf(`Figure 4 — many-to-many Coflows (%d), B = 1 Gbps, δ = 10 ms
  Sunflow  CCT/TcL: avg %.2f  p95 %.2f   (fraction < 2:   %.3f)
  Sunflow  CCT/TpL: avg %.2f  p95 %.2f   (fraction < 4.5: %.3f)
  Solstice CCT/TcL: avg %.2f  p95 %.2f
`, r.M2MCoflows, r.SunTcLAvg, r.SunTcLP95, r.SunUnderTcL2,
		r.SunTpLAvg, r.SunTpLP95, r.SunUnderTpL4p5,
		r.SolTcLAvg, r.SolTcLP95)
}

// Fig5Result summarizes Figure 5: circuit switching counts normalized by
// the minimum necessary count (the number of subflows).
type Fig5Result struct {
	M2MCoflows       int
	SunAvg, SunMax   float64
	SolAvg, SolP95   float64
	SolMax           float64
	SolFlowsCorr     float64 // Pearson corr of Solstice normalized count vs |C|
	SunAlwaysMinimal bool
}

// Fig5 reproduces Figure 5: switching counts over the per-Coflow minimum
// for many-to-many Coflows.
func Fig5(cfg Config) (Fig5Result, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	samples, err := runIntra(cfg, cs, cfg.LinkBps, cfg.Delta, true)
	if err != nil {
		return Fig5Result{}, fmt.Errorf("bench: fig5: %w", err)
	}
	var sun, sol, flows []float64
	minimal := true
	for _, s := range samples {
		if s.Class != coflow.ManyToMany || s.Flows == 0 {
			continue
		}
		ns := float64(s.SunSwitch) / float64(s.Flows)
		nl := float64(s.SolSwitch) / float64(s.Flows)
		sun = append(sun, ns)
		sol = append(sol, nl)
		flows = append(flows, float64(s.Flows))
		if s.SunSwitch != s.Flows {
			minimal = false
		}
	}
	return Fig5Result{
		M2MCoflows:       len(sun),
		SunAvg:           stats.Mean(sun),
		SunMax:           stats.Max(sun),
		SolAvg:           stats.Mean(sol),
		SolP95:           stats.Percentile(sol, 95),
		SolMax:           stats.Max(sol),
		SolFlowsCorr:     stats.Pearson(sol, flows),
		SunAlwaysMinimal: minimal,
	}, nil
}

// Format renders the Figure 5 summary.
func (r Fig5Result) Format() string {
	return fmt.Sprintf(`Figure 5 — switching count / minimum (M2M Coflows, %d)
  Sunflow:  avg %.2f  max %.2f  (always minimal: %v)
  Solstice: avg %.2f  p95 %.2f  max %.2f
  corr(Solstice normalized count, |C|) = %.2f
`, r.M2MCoflows, r.SunAvg, r.SunMax, r.SunAlwaysMinimal,
		r.SolAvg, r.SolP95, r.SolMax, r.SolFlowsCorr)
}

// DeltaSweepRow is one δ setting of Figures 6 and 10: per-Coflow CCT
// normalized to the δ = 10 ms baseline.
type DeltaSweepRow struct {
	Delta   float64
	Avg     float64
	P95     float64
	Coflows int
}

// Fig6 reproduces Figure 6: intra-Coflow sensitivity to δ over
// {100 ms, 10 ms, 1 ms, 100 µs, 10 µs} at B = 1 Gbps, normalized per Coflow
// to its CCT at δ = 10 ms.
func Fig6(cfg Config) ([]DeltaSweepRow, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	deltas := []float64{0.1, 0.01, 0.001, 0.0001, 0.00001}
	base, err := runIntra(cfg, cs, cfg.LinkBps, 0.01, false)
	if err != nil {
		return nil, fmt.Errorf("bench: fig6 baseline: %w", err)
	}
	var rows []DeltaSweepRow
	for _, d := range deltas {
		var samples []intraSample
		if d == 0.01 {
			samples = base
		} else {
			samples, err = runIntra(cfg, cs, cfg.LinkBps, d, false)
			if err != nil {
				return rows, fmt.Errorf("bench: fig6 at δ=%g: %w", d, err)
			}
		}
		var norm []float64
		for i, s := range samples {
			if base[i].SunCCT > 0 {
				norm = append(norm, s.SunCCT/base[i].SunCCT)
			}
		}
		rows = append(rows, DeltaSweepRow{
			Delta: d, Avg: stats.Mean(norm), P95: stats.Percentile(norm, 95), Coflows: len(norm),
		})
	}
	return rows, nil
}

// FormatDeltaSweep renders a δ sweep (Figures 6 and 10).
func FormatDeltaSweep(title string, rows []DeltaSweepRow) string {
	header := []string{"delta", "avg", "p95"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			formatDelta(r.Delta), fmt.Sprintf("%.2f", r.Avg), fmt.Sprintf("%.2f", r.P95),
		})
	}
	return title + " (CCT normalized to δ = 10 ms)\n" + table(header, out)
}

func formatDelta(d float64) string {
	switch {
	case d >= 1e-3:
		return fmt.Sprintf("%.0fms", d*1e3)
	default:
		return fmt.Sprintf("%.0fus", d*1e6)
	}
}

// Fig7Result summarizes Figure 7: Sunflow CCT against the packet-switched
// lower bound, split into long and short Coflows.
type Fig7Result struct {
	LongCoflows      int
	LongBytesShare   float64
	LongAvg, LongP95 float64
	AllAvg, AllP95   float64
	MaxRatio         float64
	TheoreticalCap   float64 // 2(1+α) with the trace's α
	RankCorrelation  float64 // Spearman(pavg, CCT/TpL)
}

// Fig7 reproduces Figure 7: Sunflow CCT/TpL at B = 1 Gbps, δ = 10 ms. A
// Coflow is long when its average processing time exceeds 40·δ (§5.3.2).
func Fig7(cfg Config) (Fig7Result, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	samples, err := runIntra(cfg, cs, cfg.LinkBps, cfg.Delta, false)
	if err != nil {
		return Fig7Result{}, fmt.Errorf("bench: fig7: %w", err)
	}
	var all, long, pavg []float64
	var longBytes, totalBytes float64
	for i, s := range samples {
		if s.TpL <= 0 {
			continue
		}
		ratio := s.SunCCT / s.TpL
		all = append(all, ratio)
		pavg = append(pavg, s.PAvg)
		totalBytes += cs[i].TotalBytes()
		if s.PAvg > 40*cfg.Delta {
			long = append(long, ratio)
			longBytes += cs[i].TotalBytes()
		}
	}
	// α for the trace: 1 MB floor at 1 Gbps with δ = 10 ms gives 1.25, so
	// the theoretical cap is 2(1+1.25) = 4.5.
	alpha := cfg.Delta / (workload.DefaultFloorBytes * 8 / cfg.LinkBps)
	return Fig7Result{
		LongCoflows:     len(long),
		LongBytesShare:  longBytes / totalBytes,
		LongAvg:         stats.Mean(long),
		LongP95:         stats.Percentile(long, 95),
		AllAvg:          stats.Mean(all),
		AllP95:          stats.Percentile(all, 95),
		MaxRatio:        stats.Max(all),
		TheoreticalCap:  2 * (1 + alpha),
		RankCorrelation: stats.Spearman(pavg, all),
	}, nil
}

// Format renders the Figure 7 summary.
func (r Fig7Result) Format() string {
	return fmt.Sprintf(`Figure 7 — Sunflow CCT / TpL (B = 1 Gbps, δ = 10 ms)
  long Coflows (pavg > 40δ): %d, %.1f%% of bytes — avg %.2f  p95 %.2f
  all Coflows:                          avg %.2f  p95 %.2f  max %.2f (cap %.2f)
  rank corr(pavg, CCT/TpL) = %.2f
`, r.LongCoflows, 100*r.LongBytesShare, r.LongAvg, r.LongP95,
		r.AllAvg, r.AllP95, r.MaxRatio, r.TheoreticalCap, r.RankCorrelation)
}

// Table4Row is one class of Table 4.
type Table4Row struct {
	Class     coflow.Class
	CoflowPct float64
	BytesPct  float64
}

// Table4 reproduces Table 4: Coflows classified by sender-to-receiver
// ratio, with their Coflow and byte shares.
func Table4(cfg Config) []Table4Row {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	count := map[coflow.Class]int{}
	bytes := map[coflow.Class]float64{}
	var total float64
	for _, c := range cs {
		cl := c.Classify()
		count[cl]++
		bytes[cl] += c.TotalBytes()
		total += c.TotalBytes()
	}
	var rows []Table4Row
	for _, cl := range coflow.Classes {
		rows = append(rows, Table4Row{
			Class:     cl,
			CoflowPct: 100 * float64(count[cl]) / float64(len(cs)),
			BytesPct:  100 * bytes[cl] / total,
		})
	}
	return rows
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	header := []string{"Category", "Coflow%", "Bytes%"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Class.String(), fmt.Sprintf("%.1f", r.CoflowPct), fmt.Sprintf("%.3f", r.BytesPct),
		})
	}
	return "Table 4 — Coflows by sender-to-receiver ratio\n" + table(header, out)
}

// OrderingRow compares one reservation ordering against OrderedPort.
type OrderingRow struct {
	Order    core.Order
	AvgRatio float64
	P95Ratio float64
}

// OrderingSensitivity reproduces the §5.3.1 ordering experiment: per-Coflow
// CCT of Random and SortedDemand normalized by OrderedPort.
func OrderingSensitivity(cfg Config) ([]OrderingRow, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	opts, err := cfg.options(cfg.LinkBps, cfg.Delta)
	if err != nil {
		return nil, err
	}
	run := func(order core.Order) ([]float64, error) {
		out := make([]float64, len(cs))
		err := cfg.parallelEachErr(len(cs), func(i int) error {
			c, n := compact(cs[i])
			o := opts
			o.Order, o.Seed = order, cfg.Seed
			sched, err := core.IntraCoflow(core.NewPRT(n), c, o)
			if err != nil {
				return fmt.Errorf("bench: ordering %v on coflow %d: %w", order, c.ID, err)
			}
			out[i] = sched.CCT(0)
			return nil
		})
		return out, err
	}
	base, err := run(core.OrderedPort)
	if err != nil {
		return nil, err
	}
	var rows []OrderingRow
	for _, order := range []core.Order{core.RandomOrder, core.SortedDemand} {
		ccts, err := run(order)
		if err != nil {
			return rows, err
		}
		var ratios []float64
		for i := range ccts {
			if base[i] > 0 {
				ratios = append(ratios, ccts[i]/base[i])
			}
		}
		rows = append(rows, OrderingRow{
			Order:    order,
			AvgRatio: stats.Mean(ratios),
			P95Ratio: stats.Percentile(ratios, 95),
		})
	}
	return rows, nil
}

// FormatOrdering renders the ordering sensitivity rows.
func FormatOrdering(rows []OrderingRow) string {
	header := []string{"ordering", "avg CCT ratio", "p95 CCT ratio"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Order.String(), fmt.Sprintf("%.3f", r.AvgRatio), fmt.Sprintf("%.3f", r.P95Ratio)})
	}
	return "§5.3.1 — reservation ordering vs OrderedPort\n" + table(header, out)
}

// BaselinesResult reproduces the §5.2 comparison: how much faster Solstice
// services a Coflow than TMS and Edmond.
type BaselinesResult struct {
	Coflows       int
	TMSOverSol    float64 // avg per-Coflow CCT ratio TMS/Solstice
	EdmondOverSol float64
	SunOverSol    float64
}

// Baselines compares Solstice, TMS and Edmond (and Sunflow) on a bounded
// sample of the trace: Coflows whose packet lower bound is below maxTpL
// seconds, capped at maxCoflows, to keep the slow baselines tractable.
func Baselines(cfg Config, maxCoflows int, maxTpL float64) (BaselinesResult, error) {
	cfg = cfg.WithDefaults()
	if maxCoflows == 0 {
		maxCoflows = 60
	}
	if maxTpL == 0 {
		maxTpL = 10
	}
	opts, err := cfg.options(cfg.LinkBps, cfg.Delta)
	if err != nil {
		return BaselinesResult{}, err
	}
	var sample []*coflow.Coflow
	for _, c := range cfg.Workload() {
		if c.NumFlows() > 1 && c.PacketLowerBound(cfg.LinkBps) < maxTpL {
			sample = append(sample, c)
		}
		if len(sample) >= maxCoflows {
			break
		}
	}
	type res struct{ sun, sol, tm, ed float64 }
	results := make([]res, len(sample))
	sunObs := cfg.Obs.Scoped("sunflow")
	solObs := cfg.Obs.Scoped("solstice")
	tmsObs := cfg.Obs.Scoped("tms")
	edObs := cfg.Obs.Scoped("edmond")
	perr := cfg.parallelEachErr(len(sample), func(i int) error {
		c, n := compact(sample[i])
		o := opts
		o.Obs, o.Prof = sunObs, cfg.Prof.NewStack("sunflow")
		sun, err := core.IntraCoflow(core.NewPRT(n), c, o)
		if err != nil {
			return fmt.Errorf("bench: baselines sunflow on coflow %d: %w", c.ID, err)
		}
		sol, _, err := solstice.Run(c, n, solstice.Options{LinkBps: cfg.LinkBps, Delta: cfg.Delta, Obs: solObs, Prof: cfg.Prof.NewStack("solstice")}, fabric.NotAllStop)
		if err != nil {
			return fmt.Errorf("bench: baselines solstice on coflow %d: %w", c.ID, err)
		}
		// TMS and Edmond drive fabrics that stop all circuits during a
		// reconfiguration (Mordia's ring, Helios' shared MEMS stage), so
		// they execute under the all-stop model they were designed for
		// (§3.1.1); Edmond's externally fixed slot is "on the order of
		// hundreds of milliseconds".
		tm, err := tms.Run(c, n, tms.Options{LinkBps: cfg.LinkBps, Delta: cfg.Delta, Obs: tmsObs, Prof: cfg.Prof.NewStack("tms")}, fabric.AllStop)
		if err != nil {
			return fmt.Errorf("bench: baselines tms on coflow %d: %w", c.ID, err)
		}
		ed, err := edmond.Run(c, n, edmond.Options{LinkBps: cfg.LinkBps, Delta: cfg.Delta, Slot: 0.3, Obs: edObs, Prof: cfg.Prof.NewStack("edmond")}, fabric.AllStop)
		if err != nil {
			return fmt.Errorf("bench: baselines edmond on coflow %d: %w", c.ID, err)
		}
		results[i] = res{sun: sun.CCT(0), sol: sol.Finish, tm: tm.Finish, ed: ed.Finish}
		return nil
	})
	if perr != nil {
		return BaselinesResult{}, perr
	}
	var tmsR, edR, sunR []float64
	for _, r := range results {
		if r.sol > 0 {
			tmsR = append(tmsR, r.tm/r.sol)
			edR = append(edR, r.ed/r.sol)
			sunR = append(sunR, r.sun/r.sol)
		}
	}
	return BaselinesResult{
		Coflows:       len(sample),
		TMSOverSol:    stats.Mean(tmsR),
		EdmondOverSol: stats.Mean(edR),
		SunOverSol:    stats.Mean(sunR),
	}, nil
}

// Format renders the baselines comparison.
func (r BaselinesResult) Format() string {
	return fmt.Sprintf(`§5.2 — circuit baselines on %d sampled Coflows (per-Coflow CCT ratio over Solstice)
  TMS/Solstice:     %.2f   (paper: Solstice > 2x faster than TMS)
  Edmond/Solstice:  %.2f   (paper: Solstice > 6x faster than Edmond)
  Sunflow/Solstice: %.2f
`, r.Coflows, r.TMSOverSol, r.EdmondOverSol, r.SunOverSol)
}

// AllStopResult quantifies the ablation of §4.1: executing the same
// Solstice schedules under the all-stop model instead of not-all-stop.
type AllStopResult struct {
	Coflows  int
	AvgRatio float64 // all-stop CCT / not-all-stop CCT
	P95Ratio float64
}

// AllStopAblation runs Solstice under both switch models.
func AllStopAblation(cfg Config) (AllStopResult, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	ratios := make([]float64, len(cs))
	err := cfg.parallelEachErr(len(cs), func(i int) error {
		c, n := compact(cs[i])
		opts := solstice.Options{LinkBps: cfg.LinkBps, Delta: cfg.Delta}
		nas, _, err := solstice.Run(c, n, opts, fabric.NotAllStop)
		if err != nil {
			return fmt.Errorf("bench: ablation not-all-stop on coflow %d: %w", c.ID, err)
		}
		as, _, err := solstice.Run(c, n, opts, fabric.AllStop)
		if err != nil {
			return fmt.Errorf("bench: ablation all-stop on coflow %d: %w", c.ID, err)
		}
		if nas.Finish > 0 {
			ratios[i] = as.Finish / nas.Finish
		} else {
			ratios[i] = 1
		}
		return nil
	})
	if err != nil {
		return AllStopResult{}, err
	}
	return AllStopResult{
		Coflows:  len(ratios),
		AvgRatio: stats.Mean(ratios),
		P95Ratio: stats.Percentile(ratios, 95),
	}, nil
}

// Format renders the all-stop ablation.
func (r AllStopResult) Format() string {
	return fmt.Sprintf(`Ablation — Solstice under all-stop vs not-all-stop (%d Coflows)
  all-stop CCT / not-all-stop CCT: avg %.3f  p95 %.3f
`, r.Coflows, r.AvgRatio, r.P95Ratio)
}

// maxSwitchRatio reports the worst Sunflow switching count over the minimum
// across samples; tests use it to confirm optimal switching.
func maxSwitchRatio(samples []intraSample) float64 {
	m := 0.0
	for _, s := range samples {
		if s.Flows > 0 {
			m = math.Max(m, float64(s.SunSwitch)/float64(s.Flows))
		}
	}
	return m
}
