// Benchmarks regenerating every table and figure of the paper's evaluation
// at a reduced but structurally faithful scale (run cmd/repro for the
// full-scale numbers recorded in EXPERIMENTS.md), plus micro-benchmarks of
// the schedulers themselves.
//
// One benchmark per experiment:
//
//	go test -bench=. -benchmem
package sunflow

import (
	"math/rand"
	"os"
	"testing"

	"sunflow/internal/aalo"
	"sunflow/internal/bench"
	"sunflow/internal/bvn"
	"sunflow/internal/core"
	"sunflow/internal/daemon"
	"sunflow/internal/fabric"
	"sunflow/internal/matching"
	"sunflow/internal/matrix"
	"sunflow/internal/procstat"
	"sunflow/internal/sim"
	"sunflow/internal/solstice"
	"sunflow/internal/trace"
	"sunflow/internal/varys"
)

// benchCfg is the reduced-scale workload used by the figure benchmarks.
var benchCfg = bench.Config{Seed: 1, Ports: 40, Coflows: 80, MaxWidth: 10}

func BenchmarkTable3_SchedulerCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3(bench.Config{Seed: 1}, []int{8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4(benchCfg)
	}
}

func BenchmarkFig3_IntraCCTvsTcL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig3(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_M2MRatios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig4(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_SwitchingCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_IntraDeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_CCTvsTpL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig7(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_InterAvgCCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig8(benchCfg, []float64{bench.Gbps}, []float64{0.40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_CCTDifference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig9(benchCfg, 0.40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_InterDeltaSweep(b *testing.B) {
	cfg := bench.Config{Seed: 1, Ports: 30, Coflows: 40, MaxWidth: 8}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselines_TMSEdmond(b *testing.B) {
	cfg := bench.Config{Seed: 1, Ports: 20, Coflows: 40, MaxWidth: 5}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Baselines(cfg, 10, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderingSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.OrderingSensitivity(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_AllStop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.AllStopAblation(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Combining(b *testing.B) {
	cfg := bench.Config{Seed: 1, Ports: 20, Coflows: 30, MaxWidth: 5}
	for i := 0; i < b.N; i++ {
		if _, err := bench.Combining(cfg, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scheduler micro-benchmarks ---

// benchShuffle builds a w×w shuffle on 2w ports.
func benchShuffle(w int, seed int64) *Coflow {
	rng := rand.New(rand.NewSource(seed))
	var flows []Flow
	for i := 0; i < w; i++ {
		for j := 0; j < w; j++ {
			flows = append(flows, Flow{Src: i, Dst: w + j, Bytes: float64(1+rng.Intn(64)) * 1e6})
		}
	}
	return NewCoflow(1, 0, flows)
}

func BenchmarkSunflowIntra_Shuffle16(b *testing.B) {
	c := benchShuffle(16, 7)
	opts := Options{LinkBps: 1e9, Delta: 1e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.IntraCoflow(core.NewPRT(32), c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSunflowIntra_Shuffle40(b *testing.B) {
	c := benchShuffle(40, 7)
	opts := Options{LinkBps: 1e9, Delta: 1e7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.IntraCoflow(core.NewPRT(80), c, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFacebook150 is the full-scale inter-Coflow pass: the 526-Coflow
// Facebook-derived trace on a 150-port fabric, priority-ordered shortest
// first — the workload whose planning cost the indexed PRT and horizon
// compaction target.
func benchFacebook150() []*Coflow {
	cs := bench.Config{Seed: 1, Ports: 150}.Workload()
	return core.ShortestFirst{LinkBps: 1e9}.Sort(cs)
}

func BenchmarkSunflowInter_Facebook150(b *testing.B) {
	ordered := benchFacebook150()
	opts := Options{LinkBps: 1e9, Delta: 1e7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.InterCoflow(core.NewPRT(150), ordered, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDenseTrace is the arrival-dense, port-sparse workload the incremental
// replanner targets: many narrow Coflows live at once on a wide fabric, so
// most port contexts survive a scheduling pass intact and the plan cache
// absorbs the bulk of the would-be intra invocations (the sim package's
// TestIncrementalSkipsDominateDenseWorkload pins the ≥3× reduction).
func benchDenseTrace() *trace.Trace {
	return trace.Generator{Ports: 48, Coflows: 200, HorizonSec: 5, MaxWidth: 4, Seed: 1}.Trace()
}

// BenchmarkSunflowInter_Dense measures the end-to-end circuit simulator on
// the dense workload with dirty-prefix schedule reuse enabled (the default);
// its _FullReplan twin is the same run with SUNFLOW_FULL_REPLAN=1 disabling
// the cache, so the pair's ns/op ratio is the optimization's wall-clock win.
func BenchmarkSunflowInter_Dense(b *testing.B) {
	tr := benchDenseTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSunflowInter_Dense_FullReplan(b *testing.B) {
	b.Setenv("SUNFLOW_FULL_REPLAN", "1")
	tr := benchDenseTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvent drives the daemon scheduling engine through the dense
// workload as an online event stream — register each Coflow at its arrival,
// advance between arrivals, then drain — measuring the per-stream cost of
// the engine's replan-per-event discipline with schedule reuse enabled.
func BenchmarkEngineEvent(b *testing.B) {
	tr := benchDenseTrace()
	evs := make([]daemon.Event, 0, 2*len(tr.Coflows)+2)
	for _, c := range tr.Coflows {
		flows := make([]daemon.FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, daemon.FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		evs = append(evs, daemon.Event{Kind: daemon.KindRegister, At: c.Arrival, Coflow: c.ID, Flows: flows})
	}
	last := tr.Coflows[len(tr.Coflows)-1].Arrival
	evs = append(evs,
		daemon.Event{Kind: daemon.KindAdvance, At: last + 500},
		daemon.Event{Kind: daemon.KindAdvance, At: last + 1000})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := daemon.NewEngine(daemon.EngineConfig{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, ev := range evs {
			if _, err := eng.Apply(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Events per op, for the per-event view of the same number.
	b.ReportMetric(float64(len(evs)), "events/op")
}

// BenchmarkSunflowInter_100k is the scale gate: a 100k-Coflow workload at
// the Facebook trace's arrival density, streamed straight from the generator
// through the bounded-memory archive-mode simulator — no job slice, no
// retained Result maps. Resident memory tracks peak concurrent Coflows, not
// the trace length; the reported MB-rss and coflows/s feed the benchci
// -gate-rss and throughput columns (run it alone for a meaningful RSS, as
// make scale-smoke does). One iteration simulates for minutes, so the
// benchmark only runs when SUNFLOW_SCALE=1 — the scale-bench CI job sets it;
// the ordinary bench runs skip it.
func BenchmarkSunflowInter_100k(b *testing.B) {
	if os.Getenv("SUNFLOW_SCALE") == "" {
		b.Skip("set SUNFLOW_SCALE=1 to run the multi-minute 100k-Coflow scale benchmark")
	}
	const n = 100_000
	// Keep the paper trace's arrival density: the concurrency level — and
	// with it the live set the memory bound tracks — stays at Facebook-trace
	// scale while the total Coflow count grows 190×.
	horizon := float64(n) / 526 * 3600
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := trace.Generator{Seed: 1, Coflows: n, HorizonSec: horizon}
		var dig sim.ArchiveDigest
		res, err := sim.RunCircuitSource(g.Stream().Coflows(), sim.CircuitOptions{
			Ports:     150,
			LinkBps:   1e9,
			Delta:     0.01,
			OnArchive: dig.Add,
		})
		if err != nil {
			b.Fatal(err)
		}
		if dig.Count() != n || res.Partial.Degraded() {
			b.Fatalf("archived %d of %d coflows (degraded=%v)", dig.Count(), n, res.Partial.Degraded())
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "coflows/s")
	b.ReportMetric(procstat.PeakRSSMB(), "MB-rss")
}

// benchPRTLoad describes a 1k-reservation table: sequential back-to-back
// circuits round-robined over the port pairs, the shape an inter pass leaves
// behind.
func benchPRTLoad(ports, n int) []Reservation {
	rs := make([]Reservation, 0, n)
	for k := 0; k < n; k++ {
		i, j := k%ports, (k*7+3)%ports
		start := int64(k/ports) * 1e8 // 100 ms slots
		rs = append(rs, Reservation{
			CoflowID: k, In: i, Out: j,
			Start: start, End: start + 9e7, Setup: 1e7,
		})
	}
	return rs
}

func BenchmarkPRT_Preload1k(b *testing.B) {
	rs := benchPRTLoad(64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := core.NewPRT(64)
		for _, r := range rs {
			if err := p.TryReserve(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPRT_ReleasesAfter1k(b *testing.B) {
	rs := benchPRTLoad(64, 1000)
	p := core.NewPRT(64)
	for _, r := range rs {
		if err := p.TryReserve(r); err != nil {
			b.Fatal(err)
		}
	}
	ins := []int{0, 1, 2, 3}
	outs := []int{3, 4, 5, 6}
	var dst []int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < 100; q++ {
			dst = p.ReleasesAfter(int64(q)*15e6, ins, outs, dst[:0])
		}
	}
}

func BenchmarkPRT_Compact1k(b *testing.B) {
	rs := benchPRTLoad(64, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := core.NewPRT(64)
		for _, r := range rs {
			if err := p.TryReserve(r); err != nil {
				b.Fatal(err)
			}
		}
		// Sweep the horizon forward the way an inter pass does, probing the
		// live window after each advance.
		for h := int64(0); h < 17e8; h += 1e8 {
			p.CompactBefore(h)
			for q := 0; q < 32; q++ {
				p.FreeAt(q%64, (q*7+3)%64, h+5e7)
			}
		}
	}
}

func BenchmarkSolstice_Shuffle16(b *testing.B) {
	c := benchShuffle(16, 7)
	opts := solstice.Options{LinkBps: 1e9, Delta: 0.01}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := solstice.Schedule(c, 32, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuitSim_80Coflows(b *testing.B) {
	cs := benchCfg.Workload()
	opts := sim.CircuitOptions{Ports: 40, LinkBps: 1e9, Delta: 0.01}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCircuit(cs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVarysSim_80Coflows(b *testing.B) {
	cs := benchCfg.Workload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPacket(cs, 40, 1e9, varys.Allocator{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAaloSim_80Coflows(b *testing.B) {
	cs := benchCfg.Workload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunPacket(cs, 40, 1e9, aalo.Allocator{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxMinFair_1kFlows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	flows := make([]fabric.FlowKey, 1000)
	for i := range flows {
		flows[i] = fabric.FlowKey{Src: rng.Intn(50), Dst: rng.Intn(50)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		availIn := make([]float64, 50)
		availOut := make([]float64, 50)
		for p := 0; p < 50; p++ {
			availIn[p], availOut[p] = 1e9, 1e9
		}
		fabric.MaxMinFair(flows, availIn, availOut)
	}
}

// --- 150-port kernel micro-benchmarks ---
//
// These pin the combinatorial kernels at the paper's full fabric scale; the
// figure benchmarks above exercise the same code only at reduced port
// counts, so kernel regressions hide inside their noise.

// benchDemand150 is the widest Coflow of the 150-port Facebook-derived
// workload as a processing-time matrix — the realistic sparse shape the
// schedulers feed the stuffing and matching kernels.
func benchDemand150() [][]float64 {
	cs := bench.Config{Seed: 1, Ports: 150}.Workload()
	widest := cs[0]
	for _, c := range cs {
		if len(c.Flows) > len(widest.Flows) {
			widest = c
		}
	}
	m := widest.DemandMatrix(150)
	for i := range m {
		for j := range m[i] {
			m[i][j] = m[i][j] * 8 / 1e9
		}
	}
	return m
}

func BenchmarkSolstice_Facebook150(b *testing.B) {
	cs := bench.Config{Seed: 1, Ports: 150}.Workload()
	widest := cs[0]
	for _, c := range cs {
		if len(c.Flows) > len(widest.Flows) {
			widest = c
		}
	}
	opts := solstice.Options{LinkBps: 1e9, Delta: 0.01}
	st := solstice.NewStuffer(150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Schedule(widest, 150, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBvN_Dense150(b *testing.B) {
	stuffed, _ := bvn.Stuff(benchDemand150())
	dec := bvn.NewDecomposer(150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decompose(stuffed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHopcroftKarp_Bitset150(b *testing.B) {
	m := benchDemand150()
	s := matching.NewScratch(150)
	var match []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AdjacencyAbove(m, 1e-9)
		match, _ = s.MaxMatching(match)
	}
	_ = match
}

func BenchmarkMaxMinFair_10kFlows(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	flows := make([]fabric.FlowKey, 10000)
	for i := range flows {
		flows[i] = fabric.FlowKey{Src: rng.Intn(150), Dst: rng.Intn(150)}
	}
	availIn := make([]float64, 150)
	availOut := make([]float64, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < 150; p++ {
			availIn[p], availOut[p] = 1e9, 1e9
		}
		fabric.MaxMinFair(flows, availIn, availOut)
	}
}

// BenchmarkMatrixSmoke runs the committed CI smoke spec through the
// experiment-matrix engine end to end (expansion, replicated simulator
// runs, t/bootstrap aggregation, digests) — the cost CI's matrix-smoke job
// pays twice per run, gated like every other benchmark.
func BenchmarkMatrixSmoke(b *testing.B) {
	spec, err := matrix.LoadSpec("examples/matrix/smoke.json")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.Run(spec, matrix.Options{Workers: -1}); err != nil {
			b.Fatal(err)
		}
	}
}
