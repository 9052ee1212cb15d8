package bench

import (
	"strings"
	"testing"

	"sunflow/internal/core"
)

// smallCfg keeps harness tests fast while exercising every code path.
var smallCfg = Config{Seed: 42, Ports: 30, Coflows: 60, MaxWidth: 8}

func TestWorkloadDeterministic(t *testing.T) {
	a := smallCfg.Workload()
	b := smallCfg.Workload()
	if len(a) != len(b) {
		t.Fatal("workload size not deterministic")
	}
	for i := range a {
		if a[i].TotalBytes() != b[i].TotalBytes() {
			t.Fatalf("coflow %d differs", i)
		}
	}
}

func TestCompact(t *testing.T) {
	cs := smallCfg.Workload()
	for _, c := range cs[:20] {
		cc, n := compact(c)
		if err := cc.Validate(n); err != nil {
			t.Fatalf("compacted coflow invalid: %v", err)
		}
		if cc.NumFlows() != c.NumFlows() {
			t.Fatalf("compaction changed flow count")
		}
		if got, want := cc.TotalBytes(), c.TotalBytes(); got != want {
			t.Fatalf("compaction changed bytes: %v vs %v", got, want)
		}
		senders, receivers := len(c.Senders()), len(c.Receivers())
		want := senders
		if receivers > want {
			want = receivers
		}
		if n != want {
			t.Fatalf("compact fabric size %d, want %d", n, want)
		}
		// Lower bounds are invariant under port relabeling.
		if got, want := cc.PacketLowerBound(Gbps), c.PacketLowerBound(Gbps); got != want {
			t.Fatalf("TpL changed: %v vs %v", got, want)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows, err := Fig3(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Lemma 1 must hold for every Coflow.
		if r.SunWithinFactor2 != r.Coflows {
			t.Fatalf("B=%v: only %d/%d within factor 2", r.LinkBps, r.SunWithinFactor2, r.Coflows)
		}
		if r.SunMax >= 2 {
			t.Fatalf("Sunflow max ratio %v >= 2", r.SunMax)
		}
		if r.SunAvg < 1-1e-9 || r.SolAvg < 1-1e-9 {
			t.Fatalf("ratios below 1: sun %v sol %v", r.SunAvg, r.SolAvg)
		}
	}
	// Solstice degrades as B grows (δ dominates); Sunflow stays near 1.
	if rows[2].SolAvg < rows[0].SolAvg {
		t.Fatalf("Solstice should worsen with B: %v -> %v", rows[0].SolAvg, rows[2].SolAvg)
	}
	if FormatFig3(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.M2MCoflows == 0 {
		t.Fatal("no M2M coflows in workload")
	}
	if r.SunUnderTcL2 != 1 {
		t.Fatalf("Sunflow fraction under 2 = %v, want 1 (Lemma 1)", r.SunUnderTcL2)
	}
	if r.SunUnderTpL4p5 != 1 {
		t.Fatalf("Sunflow fraction under 4.5 = %v, want 1 (Lemma 2 with α=1.25)", r.SunUnderTpL4p5)
	}
	if r.SolTcLAvg < r.SunTcLAvg {
		t.Fatalf("Solstice (%v) should not beat Sunflow (%v) on average", r.SolTcLAvg, r.SunTcLAvg)
	}
	if !strings.Contains(r.Format(), "Figure 4") {
		t.Fatal("format missing title")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.SunAlwaysMinimal {
		t.Fatal("Sunflow switching must be minimal for intra scheduling")
	}
	if r.SunAvg != 1 {
		t.Fatalf("Sunflow normalized switching = %v, want 1", r.SunAvg)
	}
	if r.SolAvg <= 1 {
		t.Fatalf("Solstice normalized switching = %v, want > 1", r.SolAvg)
	}
	// The positive count-vs-|C| correlation (paper: 0.84) emerges at full
	// trace scale; at this reduced width the signal is too weak to assert a
	// sign, so only guard against a strong inverse relationship.
	if r.SolFlowsCorr < -0.5 {
		t.Fatalf("Solstice switching strongly anti-correlates with |C|: %v", r.SolFlowsCorr)
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// δ = 10 ms row is the baseline: exactly 1.
	if rows[1].Avg != 1 || rows[1].P95 != 1 {
		t.Fatalf("baseline row = %+v", rows[1])
	}
	// Slower switch (100 ms) is worse; faster switches are monotonically
	// better with diminishing returns.
	if rows[0].Avg <= 1 {
		t.Fatalf("δ=100ms avg = %v, want > 1", rows[0].Avg)
	}
	if rows[2].Avg >= 1 {
		t.Fatalf("δ=1ms avg = %v, want < 1", rows[2].Avg)
	}
	if rows[3].Avg > rows[2].Avg+1e-9 || rows[4].Avg > rows[3].Avg+1e-9 {
		t.Fatalf("faster δ should not be slower: %v %v %v", rows[2].Avg, rows[3].Avg, rows[4].Avg)
	}
	// Marginal benefit below 100 µs is very small (< 2%).
	if rows[2].Avg-rows[4].Avg > 0.1 {
		t.Fatalf("benefit below 1ms too large: %v -> %v", rows[2].Avg, rows[4].Avg)
	}
	if FormatDeltaSweep("Figure 6", rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxRatio > r.TheoreticalCap {
		t.Fatalf("CCT/TpL %v exceeds cap %v", r.MaxRatio, r.TheoreticalCap)
	}
	if r.LongAvg > r.AllAvg {
		t.Fatalf("long coflows (%v) should be closer to TpL than average (%v)", r.LongAvg, r.AllAvg)
	}
	if r.RankCorrelation >= 0 {
		t.Fatalf("rank corr = %v, want negative (bigger pavg → smaller ratio)", r.RankCorrelation)
	}
	if r.LongBytesShare < 0.5 {
		t.Fatalf("long coflows carry %v of bytes, expected the majority", r.LongBytesShare)
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4(smallCfg)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var coflowPct, bytesPct float64
	for _, r := range rows {
		coflowPct += r.CoflowPct
		bytesPct += r.BytesPct
	}
	if coflowPct < 99.9 || coflowPct > 100.1 {
		t.Fatalf("coflow shares sum to %v", coflowPct)
	}
	if bytesPct < 99.9 || bytesPct > 100.1 {
		t.Fatalf("byte shares sum to %v", bytesPct)
	}
	if FormatTable4(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestOrderingSensitivityShape(t *testing.T) {
	rows, err := OrderingSensitivity(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// §5.3.1 found ±6%; allow a loose envelope on the small workload.
		if r.AvgRatio < 0.7 || r.AvgRatio > 1.3 {
			t.Fatalf("%v avg ratio %v outside envelope", r.Order, r.AvgRatio)
		}
	}
}

func TestBaselinesShape(t *testing.T) {
	r, err := Baselines(Config{Seed: 42, Ports: 20, Coflows: 40, MaxWidth: 5}, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Coflows == 0 {
		t.Fatal("no coflows sampled")
	}
	if r.TMSOverSol < 1 {
		t.Fatalf("TMS/Solstice = %v, expected Solstice faster", r.TMSOverSol)
	}
	if r.EdmondOverSol < r.TMSOverSol {
		t.Fatalf("Edmond (%v) should be slower than TMS (%v)", r.EdmondOverSol, r.TMSOverSol)
	}
	if r.EdmondOverSol < 1 {
		t.Fatalf("Edmond/Solstice = %v, expected Solstice faster", r.EdmondOverSol)
	}
	if r.SunOverSol > 1 {
		t.Fatalf("Sunflow/Solstice = %v, expected Sunflow faster", r.SunOverSol)
	}
}

func TestAllStopAblationShape(t *testing.T) {
	r, err := AllStopAblation(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgRatio < 1-1e-9 {
		t.Fatalf("all-stop ratio = %v, must be >= 1", r.AvgRatio)
	}
}

func TestFig8SmallGrid(t *testing.T) {
	rows, err := Fig8(smallCfg, []float64{Gbps}, []float64{0.40, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SunAvgCCT <= 0 || r.VarysAvgCCT <= 0 || r.AaloAvgCCT <= 0 {
			t.Fatalf("degenerate averages: %+v", r)
		}
		// Circuit switching can never beat the packet schedulers by a large
		// factor, and at high idleness it must be slower.
		if r.SunOverVarys < 0.3 {
			t.Fatalf("implausible Sun/Varys = %v", r.SunOverVarys)
		}
	}
	// At near-empty load (95% idleness), Coflows run mostly alone and the
	// circuit δ penalty must show: Sunflow cannot beat Varys.
	if rows[1].SunOverVarys < 1 {
		t.Fatalf("Sun/Varys at 95%% idleness = %v, want >= 1", rows[1].SunOverVarys)
	}
	if FormatFig8(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestFig9Small(t *testing.T) {
	r, err := Fig9(smallCfg, 0.40)
	if err != nil {
		t.Fatal(err)
	}
	if r.Coflows == 0 {
		t.Fatal("no coflows compared")
	}
	// Short Coflows pay the δ penalty more than long ones. A sparse small
	// workload scaled up to the idleness target may leave one bucket empty
	// (reported as 0), in which case the comparison is vacuous.
	if r.ShortSunOverVarys > 0 && r.LongSunOverVarys > 0 &&
		r.ShortSunOverVarys < r.LongSunOverVarys {
		t.Fatalf("short ratio %v should exceed long ratio %v", r.ShortSunOverVarys, r.LongSunOverVarys)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestFig10Small(t *testing.T) {
	cfg := Config{Seed: 42, Ports: 20, Coflows: 30, MaxWidth: 6}
	rows, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Avg != 1 {
		t.Fatalf("baseline = %v", rows[1].Avg)
	}
	if rows[0].Avg <= rows[1].Avg {
		t.Fatalf("δ=100ms should be slower: %v", rows[0].Avg)
	}
}

func TestStarvationSmall(t *testing.T) {
	r, err := Starvation(Config{Seed: 1}, core.FairWindows{N: 4, T: 5e8, Tau: 5e7})
	if err != nil {
		t.Fatal(err)
	}
	if r.StarvedCCTWith >= r.StarvedCCTWithout {
		t.Fatalf("fair windows did not help: %v vs %v", r.StarvedCCTWith, r.StarvedCCTWithout)
	}
	// Fair windows reshape the schedule: usually a small average-CCT cost,
	// but the shared τ service can also help on small fabrics — only guard
	// against degenerate values.
	if r.OverheadAvgCCT < 0.5 || r.OverheadAvgCCT > 2 {
		t.Fatalf("overhead ratio = %v, expected near 1", r.OverheadAvgCCT)
	}
	if r.Format() == "" {
		t.Fatal("empty format")
	}
}

func TestCombiningSmall(t *testing.T) {
	r, err := Combining(Config{Seed: 42, Ports: 20, Coflows: 40, MaxWidth: 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Groups == 0 {
		t.Fatal("no groups")
	}
	// §4.2: combining may cost average CCT.
	if r.Ratio < 1-1e-9 {
		t.Fatalf("combined avg CCT ratio = %v, expected >= 1", r.Ratio)
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(Config{Seed: 1}, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sunflow <= 0 || r.Solstice <= 0 || r.TMS <= 0 || r.Edmond <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
	}
	if FormatTable3(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestApproximationShape(t *testing.T) {
	rows, err := Approximation(smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AvgCCTRatio != 1 {
		t.Fatalf("exact baseline ratio = %v", rows[0].AvgCCTRatio)
	}
	for i := 1; i < len(rows); i++ {
		// Rounding demand up can only lengthen schedules.
		if rows[i].AvgCCTRatio < 1-1e-9 {
			t.Fatalf("quantum %v shortened schedules: %v", rows[i].Quantum, rows[i].AvgCCTRatio)
		}
		// Coarser quanta cost at least as much as finer ones.
		if rows[i].AvgCCTRatio < rows[i-1].AvgCCTRatio-1e-6 {
			t.Fatalf("non-monotone quantum cost: %v then %v", rows[i-1].AvgCCTRatio, rows[i].AvgCCTRatio)
		}
	}
	if FormatApproximation(rows) == "" {
		t.Fatal("empty format")
	}
}

func TestHybridShape(t *testing.T) {
	rows, err := Hybrid(Config{Seed: 42, Ports: 20, Coflows: 40, MaxWidth: 6}, 0.1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PacketShare != 0 {
		t.Fatalf("pure circuit row carries packet bytes: %v", rows[0].PacketShare)
	}
	last := rows[len(rows)-1]
	if last.PacketShare < 0.999 {
		t.Fatalf("pure packet row carries only %v of bytes", last.PacketShare)
	}
	// Sending all bulk traffic over a 10%-bandwidth packet path must hurt.
	if last.AvgCCTRatio < 1 {
		t.Fatalf("pure 10%%-bandwidth packet fabric beat the circuit fabric: %v", last.AvgCCTRatio)
	}
	if FormatHybrid(rows) == "" {
		t.Fatal("empty format")
	}
}
