package bench

import (
	"fmt"

	"sunflow/internal/aalo"
	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/obs"
	"sunflow/internal/obs/replay"
	"sunflow/internal/sim"
	"sunflow/internal/stats"
	"sunflow/internal/varys"
	"sunflow/internal/workload"
)

// interRun holds the three schedulers' results on one workload setting,
// together with the observability deltas this run added to each scheduler's
// scope (zero summaries when Config.Obs is nil).
type interRun struct {
	Sunflow sim.Result
	Varys   sim.Result
	Aalo    sim.Result

	SunObs   obs.Summary
	VarysObs obs.Summary
	AaloObs  obs.Summary
	// SunReplayDuty is the Sunflow duty cycle reconstructed by replaying
	// this run's trace events — an end-to-end cross-check of the counters
	// (the two agree bit-exactly; see internal/obs/replay). Zero when
	// Config.Obs is nil.
	SunReplayDuty float64
}

// runInter replays the workload through Sunflow (circuit switched) and
// Varys and Aalo (packet switched) at the given bandwidth. With Config.Obs
// set, each scheduler runs under its own scope and the run's summary deltas
// are attached to the result (the scopes accumulate across runs).
func runInter(cfg Config, cs []*coflow.Coflow, linkBps float64) (interRun, error) {
	cfg = cfg.WithDefaults()
	sunObs := cfg.Obs.Scoped("sunflow")
	varysObs := cfg.Obs.Scoped("varys")
	aaloObs := cfg.Obs.Scoped("aalo")
	sunPrev, varysPrev, aaloPrev := sunObs.Summary(), varysObs.Summary(), aaloObs.Summary()

	// Tee this run's Sunflow events into a private buffer so the duty cycle
	// can be re-derived from the trace alone; the user's sink (if any) still
	// receives everything.
	var cellSink *obs.SliceSink
	if cfg.Obs != nil {
		cellSink = &obs.SliceSink{}
		sunObs = obs.NewWith(cfg.Obs.Registry(), obs.Tee(cfg.Obs.Sink(), cellSink)).Scoped("sunflow")
	}

	// One Stack per scheduler run: runInter runs them sequentially on this
	// goroutine, and per-scheduler scopes keep the span aggregates beside the
	// matching counters.
	sunProf := cfg.Prof.NewStack("sunflow")
	varysProf := cfg.Prof.NewStack("varys")
	aaloProf := cfg.Prof.NewStack("aalo")

	var out interRun
	var err error
	out.Sunflow, err = sim.RunCircuit(cs, sim.CircuitOptions{
		Ports:   cfg.Ports,
		LinkBps: linkBps,
		Delta:   cfg.Delta,
		Obs:     sunObs,
		Prof:    sunProf,
	})
	if err != nil {
		return out, fmt.Errorf("bench: sunflow inter: %w", err)
	}
	if cellSink != nil {
		if s := replay.Analyze(cellSink.Events()).Scope("sunflow"); s != nil {
			out.SunReplayDuty = s.DutyCycle
		}
	}
	out.Varys, err = sim.RunPacketOpts(cs, sim.PacketOptions{
		Ports: cfg.Ports, LinkBps: linkBps,
		Alloc: varys.Allocator{Obs: varysObs, Prof: varysProf},
		Obs:   varysObs, Prof: varysProf,
	})
	if err != nil {
		return out, fmt.Errorf("bench: varys: %w", err)
	}
	out.Aalo, err = sim.RunPacketOpts(cs, sim.PacketOptions{
		Ports: cfg.Ports, LinkBps: linkBps,
		Alloc: aalo.Allocator{Obs: aaloObs, Prof: aaloProf},
		Obs:   aaloObs, Prof: aaloProf,
	})
	if err != nil {
		return out, fmt.Errorf("bench: aalo: %w", err)
	}
	out.SunObs = sunObs.Summary().Sub(sunPrev)
	out.VarysObs = varysObs.Summary().Sub(varysPrev)
	out.AaloObs = aaloObs.Summary().Sub(aaloPrev)
	return out, nil
}

// Fig8Row is one (bandwidth, idleness) cell of Figure 8.
type Fig8Row struct {
	LinkBps     float64
	Idleness    float64
	ScaleFactor float64
	SunAvgCCT   float64
	VarysAvgCCT float64
	AaloAvgCCT  float64
	// SunOverVarys and SunOverAalo are the normalized average CCTs the
	// figure plots.
	SunOverVarys float64
	SunOverAalo  float64
	// SunObs, VarysObs and AaloObs carry this cell's observability deltas
	// when Config.Obs is set (zero otherwise).
	SunObs   obs.Summary
	VarysObs obs.Summary
	AaloObs  obs.Summary
	// SunReplayDuty is Sunflow's duty cycle re-derived from this cell's
	// trace by internal/obs/replay (zero when Config.Obs is nil).
	SunReplayDuty float64
}

// Fig8 reproduces Figure 8: Sunflow's average CCT normalized by Varys' and
// Aalo's, across bandwidths and network idleness settings. An idleness
// value of 0 selects the original (unscaled) workload, whose idleness grows
// with bandwidth as the paper's does (12% at 1 Gbps rising toward ~98% at
// 100 Gbps); positive values scale the byte sizes to reach that idleness at
// that bandwidth, preserving Coflow structure (§5.4).
func Fig8(cfg Config, bandwidths, idleness []float64) ([]Fig8Row, error) {
	cfg = cfg.WithDefaults()
	if len(bandwidths) == 0 {
		bandwidths = []float64{Gbps, 10 * Gbps, 100 * Gbps}
	}
	if len(idleness) == 0 {
		idleness = []float64{0, 0.20, 0.40}
	}
	base := cfg.Workload()
	var rows []Fig8Row
	for _, b := range bandwidths {
		for _, idle := range idleness {
			factor, scaled := 1.0, base
			if idle > 0 {
				var err error
				factor, scaled, err = workload.ScaleToIdleness(base, b, idle)
				if err != nil {
					return rows, fmt.Errorf("bench: idleness %.2f at %.0fG: %w", idle, b/Gbps, err)
				}
			} else {
				idle = workload.Idleness(base, b)
			}
			run, err := runInter(cfg, scaled, b)
			if err != nil {
				return rows, err
			}
			row := Fig8Row{
				LinkBps:       b,
				Idleness:      idle,
				ScaleFactor:   factor,
				SunAvgCCT:     run.Sunflow.AverageCCT(),
				VarysAvgCCT:   run.Varys.AverageCCT(),
				AaloAvgCCT:    run.Aalo.AverageCCT(),
				SunObs:        run.SunObs,
				VarysObs:      run.VarysObs,
				AaloObs:       run.AaloObs,
				SunReplayDuty: run.SunReplayDuty,
			}
			if row.VarysAvgCCT > 0 {
				row.SunOverVarys = row.SunAvgCCT / row.VarysAvgCCT
			}
			if row.AaloAvgCCT > 0 {
				row.SunOverAalo = row.SunAvgCCT / row.AaloAvgCCT
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatFig8 renders the Figure 8 grid. The duty column (Sunflow's circuit
// duty cycle re-derived from the cell's trace) appears only when the rows
// were collected with observability on.
func FormatFig8(rows []Fig8Row) string {
	withDuty := false
	for _, r := range rows {
		if r.SunReplayDuty > 0 {
			withDuty = true
			break
		}
	}
	header := []string{"B", "idleness", "Sun avg CCT", "Varys avg", "Aalo avg", "Sun/Varys", "Sun/Aalo"}
	if withDuty {
		header = append(header, "Sun duty")
	}
	var out [][]string
	for _, r := range rows {
		row := []string{
			fmt.Sprintf("%.0f Gbps", r.LinkBps/Gbps),
			fmt.Sprintf("%.0f%%", r.Idleness*100),
			fmt.Sprintf("%.3fs", r.SunAvgCCT),
			fmt.Sprintf("%.3fs", r.VarysAvgCCT),
			fmt.Sprintf("%.3fs", r.AaloAvgCCT),
			fmt.Sprintf("%.2f", r.SunOverVarys),
			fmt.Sprintf("%.2f", r.SunOverAalo),
		}
		if withDuty {
			row = append(row, fmt.Sprintf("%.4f", r.SunReplayDuty))
		}
		out = append(out, row)
	}
	return "Figure 8 — inter-Coflow average CCT, Sunflow (OCS) vs Varys/Aalo (packet)\n" + table(header, out)
}

// Fig9Result summarizes Figure 9: per-Coflow CCT differences between
// Sunflow and the packet schedulers at the original traffic load.
type Fig9Result struct {
	Coflows int
	// Ratio metrics of §5.4's first comparison.
	SunOverVarysAvg float64
	SunOverVarysP95 float64
	SunOverAaloAvg  float64
	SunOverAaloP95  float64
	// Short/long split (long: pavg > 40δ).
	ShortSunOverVarys float64
	LongSunOverVarys  float64
	ShortSunOverAalo  float64
	LongSunOverAalo   float64
	// Fractions of Coflows Sunflow finishes no later than the baseline.
	FasterThanVarys float64
	FasterThanAalo  float64
}

// Fig9 reproduces Figure 9 (and the §5.4 CCT-ratio discussion): per-Coflow
// ΔCCT between Sunflow and Varys/Aalo on the workload scaled to the target
// idleness (the paper uses the original 12%).
func Fig9(cfg Config, idleness float64) (Fig9Result, error) {
	cfg = cfg.WithDefaults()
	if idleness == 0 {
		idleness = 0.12
	}
	base := cfg.Workload()
	_, scaled, err := workload.ScaleToIdleness(base, cfg.LinkBps, idleness)
	if err != nil {
		return Fig9Result{}, err
	}
	run, err := runInter(cfg, scaled, cfg.LinkBps)
	if err != nil {
		return Fig9Result{}, err
	}

	var rv, ra, rvShort, rvLong, raShort, raLong []float64
	fasterV, fasterA := 0, 0
	for _, c := range scaled {
		sun := run.Sunflow.CCT[c.ID]
		v := run.Varys.CCT[c.ID]
		a := run.Aalo.CCT[c.ID]
		if v <= 0 || a <= 0 {
			continue
		}
		long := c.AvgProcTime(cfg.LinkBps) > 40*cfg.Delta
		rv = append(rv, sun/v)
		ra = append(ra, sun/a)
		if long {
			rvLong = append(rvLong, sun/v)
			raLong = append(raLong, sun/a)
		} else {
			rvShort = append(rvShort, sun/v)
			raShort = append(raShort, sun/a)
		}
		if sun <= v+1e-9 {
			fasterV++
		}
		if sun <= a+1e-9 {
			fasterA++
		}
	}
	n := float64(len(rv))
	return Fig9Result{
		Coflows:           len(rv),
		SunOverVarysAvg:   stats.Mean(rv),
		SunOverVarysP95:   stats.Percentile(rv, 95),
		SunOverAaloAvg:    stats.Mean(ra),
		SunOverAaloP95:    stats.Percentile(ra, 95),
		ShortSunOverVarys: stats.Mean(rvShort),
		LongSunOverVarys:  stats.Mean(rvLong),
		ShortSunOverAalo:  stats.Mean(raShort),
		LongSunOverAalo:   stats.Mean(raLong),
		FasterThanVarys:   float64(fasterV) / n,
		FasterThanAalo:    float64(fasterA) / n,
	}, nil
}

// Format renders the Figure 9 summary.
func (r Fig9Result) Format() string {
	return fmt.Sprintf(`Figure 9 / §5.4 — per-Coflow CCT ratios at original load (%d Coflows)
  Sunflow/Varys: avg %.2f  p95 %.2f   (short %.2f, long %.2f; Sunflow ≤ Varys for %.0f%%)
  Sunflow/Aalo:  avg %.2f  p95 %.2f   (short %.2f, long %.2f; Sunflow ≤ Aalo  for %.0f%%)
`, r.Coflows,
		r.SunOverVarysAvg, r.SunOverVarysP95, r.ShortSunOverVarys, r.LongSunOverVarys, 100*r.FasterThanVarys,
		r.SunOverAaloAvg, r.SunOverAaloP95, r.ShortSunOverAalo, r.LongSunOverAalo, 100*r.FasterThanAalo)
}

// Fig10 reproduces Figure 10: inter-Coflow sensitivity to δ on the original
// workload, normalized per Coflow to δ = 10 ms.
func Fig10(cfg Config) ([]DeltaSweepRow, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()
	deltas := []float64{0.1, 0.01, 0.001, 0.0001, 0.00001}

	runAt := func(d float64) (map[int]float64, error) {
		res, err := sim.RunCircuit(cs, sim.CircuitOptions{
			Ports: cfg.Ports, LinkBps: cfg.LinkBps, Delta: d,
		})
		if err != nil {
			return nil, err
		}
		return res.CCT, nil
	}
	base, err := runAt(0.01)
	if err != nil {
		return nil, err
	}
	var rows []DeltaSweepRow
	for _, d := range deltas {
		cct := base
		if d != 0.01 {
			if cct, err = runAt(d); err != nil {
				return rows, err
			}
		}
		var norm []float64
		for _, id := range sortedIDs(base) {
			if base[id] > 0 {
				norm = append(norm, cct[id]/base[id])
			}
		}
		rows = append(rows, DeltaSweepRow{Delta: d, Avg: stats.Mean(norm), P95: stats.Percentile(norm, 95), Coflows: len(norm)})
	}
	return rows, nil
}

// StarvationResult reports the §4.2 starvation-avoidance experiment.
type StarvationResult struct {
	// StarvedCCTWithout and StarvedCCTWith are the deprioritized Coflow's
	// CCT without and with fair windows.
	StarvedCCTWithout float64
	StarvedCCTWith    float64
	// GuaranteeBound is N·(T+τ), the period within which every Coflow is
	// guaranteed non-zero service.
	GuaranteeBound float64
	// OverheadAvgCCT is the ratio of the normal workload's average CCT with
	// fair windows enabled over disabled — the cost of the guarantee.
	OverheadAvgCCT float64
}

// Starvation demonstrates the starvation-avoidance design: an adversarial
// high-priority Coflow monopolizes a port pair while a deprioritized Coflow
// waits, with and without (T, τ) fair windows; then the overhead of the
// windows on a normal workload is measured. It runs at the full experiment
// scale (a 32 s hog at 1 Gbps, a 40-Coflow overhead workload); see
// StarvationSized for a parameterized variant.
func Starvation(cfg Config, fair core.FairWindows) (StarvationResult, error) {
	return StarvationSized(cfg, fair, 4e9, 40)
}

// StarvationSized is Starvation with the experiment scale exposed: hogBytes
// sets the monopolizing Coflow's transfer (the starved Coflow's wait scales
// with it) and overheadCoflows the size of the workload used to price the
// fair-window guarantee. The quick benchmark configuration runs a reduced
// scale; the slowbench build tag restores the full experiment.
func StarvationSized(cfg Config, fair core.FairWindows, hogBytes float64, overheadCoflows int) (StarvationResult, error) {
	cfg = cfg.WithDefaults()
	if fair.N == 0 {
		fair = core.FairWindows{N: 8, T: 1e9, Tau: 5e7} // T = 1 s, τ = 50 ms
	}
	opts, err := cfg.options(cfg.LinkBps, cfg.Delta)
	if err != nil {
		return StarvationResult{}, err
	}
	if err := fair.Validate(opts.Delta); err != nil {
		return StarvationResult{}, err
	}
	if hogBytes <= 0 {
		hogBytes = 4e9
	}
	if overheadCoflows <= 0 {
		overheadCoflows = 40
	}

	// Adversarial scenario on a small fabric.
	hog := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: hogBytes}})
	starved := coflow.New(2, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	policy := core.PriorityClasses{Class: map[int]int{1: 0, 2: 1}}
	small := sim.CircuitOptions{Ports: fair.N, LinkBps: cfg.LinkBps, Delta: cfg.Delta, Policy: policy}

	without, err := sim.RunCircuit([]*coflow.Coflow{hog, starved}, small)
	if err != nil {
		return StarvationResult{}, err
	}
	smallFair := small
	smallFair.Fair = &fair
	with, err := sim.RunCircuit([]*coflow.Coflow{hog, starved}, smallFair)
	if err != nil {
		return StarvationResult{}, err
	}

	// Overhead on a regular workload (reduced size keeps this tractable).
	wl := Config{Seed: cfg.Seed, Ports: fair.N, Coflows: overheadCoflows, MaxWidth: 6, LinkBps: cfg.LinkBps, Delta: cfg.Delta}
	cs := wl.Workload()
	normal, err := sim.RunCircuit(cs, sim.CircuitOptions{Ports: fair.N, LinkBps: cfg.LinkBps, Delta: cfg.Delta})
	if err != nil {
		return StarvationResult{}, err
	}
	withFair, err := sim.RunCircuit(cs, sim.CircuitOptions{
		Ports: fair.N, LinkBps: cfg.LinkBps, Delta: cfg.Delta, Fair: &fair,
	})
	if err != nil {
		return StarvationResult{}, err
	}

	res := StarvationResult{
		StarvedCCTWithout: without.CCT[2],
		StarvedCCTWith:    with.CCT[2],
		GuaranteeBound:    float64(fair.N) * core.Seconds(fair.T+fair.Tau),
	}
	if normal.AverageCCT() > 0 {
		res.OverheadAvgCCT = withFair.AverageCCT() / normal.AverageCCT()
	}
	return res, nil
}

// Format renders the starvation experiment.
func (r StarvationResult) Format() string {
	return fmt.Sprintf(`§4.2 — starvation avoidance with (T, τ) fair windows
  deprioritized Coflow CCT: %.2fs without windows → %.2fs with windows
  guarantee: non-zero service within every N(T+τ) = %.2fs
  overhead on a normal workload: avg CCT ×%.3f
`, r.StarvedCCTWithout, r.StarvedCCTWith, r.GuaranteeBound, r.OverheadAvgCCT)
}

// CombiningResult reports the §4.2 Coflow-combining ablation: serving
// same-priority Coflows combined as one versus individually.
type CombiningResult struct {
	Groups         int
	AvgCCTSolo     float64
	AvgCCTCombined float64
	Ratio          float64
}

// Combining compares serving batches of equal-priority Coflows individually
// (sorted by arrival) against combining each batch into a single Coflow, as
// §4.2 describes, using serialized scheduling of each batch.
func Combining(cfg Config, batch int) (CombiningResult, error) {
	cfg = cfg.WithDefaults()
	if batch == 0 {
		batch = 4
	}
	cs := cfg.Workload()
	opts, err := cfg.options(cfg.LinkBps, cfg.Delta)
	if err != nil {
		return CombiningResult{}, err
	}
	var soloSum, combSum float64
	groups := 0
	for i := 0; i+batch <= len(cs) && groups < 40; i += batch {
		group := cs[i : i+batch]
		// Individually: schedule the batch through one PRT in arrival order.
		zeroed := make([]*coflow.Coflow, batch)
		for k, c := range group {
			zeroed[k] = c.Clone()
			zeroed[k].Arrival = 0
		}
		prt := core.NewPRT(cfg.Ports)
		scheds, err := core.InterCoflow(prt, zeroed, opts)
		if err != nil {
			return CombiningResult{}, err
		}
		for _, s := range scheds {
			soloSum += s.CCT(0)
		}
		// Combined: one merged Coflow; every member's CCT is the combined
		// finish time.
		merged, err := coflow.Combine(1000000+i, zeroed)
		if err != nil {
			return CombiningResult{}, err
		}
		msched, err := core.IntraCoflow(core.NewPRT(cfg.Ports), merged, opts)
		if err != nil {
			return CombiningResult{}, err
		}
		combSum += float64(batch) * msched.CCT(0)
		groups++
	}
	n := float64(groups * batch)
	res := CombiningResult{
		Groups:         groups,
		AvgCCTSolo:     soloSum / n,
		AvgCCTCombined: combSum / n,
	}
	if res.AvgCCTSolo > 0 {
		res.Ratio = res.AvgCCTCombined / res.AvgCCTSolo
	}
	return res, nil
}

// Format renders the combining ablation.
func (r CombiningResult) Format() string {
	return fmt.Sprintf(`§4.2 — combining same-priority Coflows (%d groups)
  avg CCT served individually: %.3fs
  avg CCT combined:            %.3fs  (×%.2f — combining costs average CCT)
`, r.Groups, r.AvgCCTSolo, r.AvgCCTCombined, r.Ratio)
}
