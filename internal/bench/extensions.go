package bench

import (
	"fmt"
	"math"
	"sunflow/internal/fabric"
	"time"

	"sunflow/internal/core"
	"sunflow/internal/hybrid"
	"sunflow/internal/stats"
	"sunflow/internal/workload"
)

// ApproximationRow is one quantum setting of the §6 approximation ablation:
// rounding subflow processing times up to a multiple of the quantum prunes
// circuit-release events at the cost of holding circuits longer.
type ApproximationRow struct {
	// Quantum is the rounding granularity in seconds (0 = exact).
	Quantum float64
	// AvgCCTRatio is the average per-Coflow CCT over the exact schedule's.
	AvgCCTRatio float64
	// P95CCTRatio is the 95th percentile of the same ratio.
	P95CCTRatio float64
	// SchedulingTime is the total wall-clock time spent scheduling.
	SchedulingTime time.Duration
}

// Approximation sweeps the scheduling quantum over {0, δ/2, δ, 5δ} on the
// serialized workload.
func Approximation(cfg Config) ([]ApproximationRow, error) {
	cfg = cfg.WithDefaults()
	cs := cfg.Workload()

	opts, err := cfg.options(cfg.LinkBps, cfg.Delta)
	if err != nil {
		return nil, err
	}
	run := func(q int64) ([]float64, time.Duration, error) {
		ccts := make([]float64, len(cs))
		start := time.Now()
		err := cfg.parallelEachErr(len(cs), func(i int) error {
			c, n := compact(cs[i])
			o := opts
			o.Quantum = q
			sched, err := core.IntraCoflow(core.NewPRT(n), c, o)
			if err != nil {
				return fmt.Errorf("bench: approximation q=%gs on coflow %d: %w", core.Seconds(q), c.ID, err)
			}
			ccts[i] = sched.CCT(0)
			return nil
		})
		return ccts, time.Since(start), err
	}

	base, baseTime, err := run(0)
	if err != nil {
		return nil, err
	}
	rows := []ApproximationRow{{Quantum: 0, AvgCCTRatio: 1, P95CCTRatio: 1, SchedulingTime: baseTime}}
	for _, q := range []int64{opts.Delta / 2, opts.Delta, 5 * opts.Delta} {
		ccts, dur, err := run(q)
		if err != nil {
			return rows, err
		}
		var ratios []float64
		for i := range ccts {
			if base[i] > 0 {
				ratios = append(ratios, ccts[i]/base[i])
			}
		}
		rows = append(rows, ApproximationRow{
			Quantum:        core.Seconds(q),
			AvgCCTRatio:    stats.Mean(ratios),
			P95CCTRatio:    stats.Percentile(ratios, 95),
			SchedulingTime: dur,
		})
	}
	return rows, nil
}

// FormatApproximation renders the quantum sweep.
func FormatApproximation(rows []ApproximationRow) string {
	header := []string{"quantum", "avg CCT ratio", "p95 CCT ratio", "sched time"}
	var out [][]string
	for _, r := range rows {
		q := "exact"
		if r.Quantum > 0 {
			q = formatDelta(r.Quantum)
		}
		out = append(out, []string{
			q,
			fmt.Sprintf("%.3f", r.AvgCCTRatio),
			fmt.Sprintf("%.3f", r.P95CCTRatio),
			r.SchedulingTime.Round(time.Millisecond).String(),
		})
	}
	return "§6 — demand-rounding approximation (intra-Coflow, serialized workload)\n" + table(header, out)
}

// HybridRow is one threshold setting of the hybrid fabric experiment.
type HybridRow struct {
	// ThresholdBytes routes smaller flows to the packet network.
	ThresholdBytes float64
	// PacketShare is the fraction of bytes on the packet path.
	PacketShare float64
	// AvgCCT is the combined average CCT.
	AvgCCT float64
	// AvgCCTRatio normalizes against the pure-circuit fabric.
	AvgCCTRatio float64
}

// Hybrid sweeps the small-flow threshold of a REACToR-style hybrid fabric:
// the circuit switch keeps its full bandwidth while a packet network with
// packetFraction of the per-port bandwidth absorbs flows below the
// threshold. The workload is scaled to the given idleness first.
func Hybrid(cfg Config, packetFraction, idleness float64) ([]HybridRow, error) {
	cfg = cfg.WithDefaults()
	if packetFraction == 0 {
		packetFraction = 0.1
	}
	if idleness == 0 {
		idleness = 0.4
	}
	base := cfg.Workload()
	_, cs, err := workload.ScaleToIdleness(base, cfg.LinkBps, idleness)
	if err != nil {
		return nil, err
	}

	var totalBytes float64
	for _, c := range cs {
		totalBytes += c.TotalBytes()
	}

	var rows []HybridRow
	var pureAvg float64
	for _, threshold := range []float64{0, 1e6, 10e6, 100e6, math.Inf(1)} {
		res, err := hybrid.Run(cs, hybrid.Options{
			Ports:          cfg.Ports,
			CircuitBps:     cfg.LinkBps,
			PacketBps:      cfg.LinkBps * packetFraction,
			Delta:          cfg.Delta,
			ThresholdBytes: threshold,
			PacketAlloc:    fabric.PacedFairSharing{},
		})
		if err != nil {
			return rows, err
		}
		row := HybridRow{
			ThresholdBytes: threshold,
			PacketShare:    res.PacketBytes / totalBytes,
			AvgCCT:         res.AverageCCT(),
		}
		if threshold == 0 {
			pureAvg = row.AvgCCT
		}
		if pureAvg > 0 {
			row.AvgCCTRatio = row.AvgCCT / pureAvg
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatHybrid renders the hybrid sweep.
func FormatHybrid(rows []HybridRow) string {
	header := []string{"threshold", "packet bytes", "avg CCT", "vs pure circuit"}
	var out [][]string
	for _, r := range rows {
		th := "pure circuit"
		if math.IsInf(r.ThresholdBytes, 1) {
			th = "pure packet"
		} else if r.ThresholdBytes > 0 {
			th = fmt.Sprintf("< %.0f MB", r.ThresholdBytes/1e6)
		}
		out = append(out, []string{
			th,
			fmt.Sprintf("%.2f%%", r.PacketShare*100),
			fmt.Sprintf("%.3fs", r.AvgCCT),
			fmt.Sprintf("%.3f", r.AvgCCTRatio),
		})
	}
	return "Extension — REACToR-style hybrid fabric (packet path at 10% bandwidth)\n" + table(header, out)
}
