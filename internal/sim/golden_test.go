package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/trace"
)

// The golden pins below fix the archive digest of three fixed-seed circuit
// runs. They hold with and without SUNFLOW_FULL_REPLAN=1 (schedule reuse is
// bit-identical to a full rebuild), so CI runs them both ways.

// goldenRun streams the workload through the archive path and returns the
// archive digest plus the run's Result (Partial is populated on fault runs).
func goldenRun(t *testing.T, cs []*coflow.Coflow, opts CircuitOptions) (string, Result) {
	t.Helper()
	var d ArchiveDigest
	opts.OnArchive = d.Add
	res, err := RunCircuitSource(SliceSource(cs), opts)
	if err != nil {
		t.Fatal(err)
	}
	return d.Sum(), res
}

// partialDigest fingerprints a PartialResult bit-exactly: every stranded flow
// in stranding order, the per-Coflow finish instants in id order, and the
// stranded byte total.
func partialDigest(p *PartialResult) string {
	if p == nil {
		return "none"
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range p.Stranded {
		put(uint64(int64(s.Coflow)))
		put(uint64(int64(s.Src)))
		put(uint64(int64(s.Dst)))
		put(math.Float64bits(s.Bytes))
		put(math.Float64bits(s.At))
	}
	ids := make([]int, 0, len(p.Finish))
	for id := range p.Finish {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		put(uint64(int64(id)))
		put(math.Float64bits(p.Finish[id]))
	}
	put(math.Float64bits(p.Bytes))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenFaultFreeFacebook48 pins a fault-free Facebook-mix run on 48
// ports. Fault-free goldens must never move.
func TestGoldenFaultFreeFacebook48(t *testing.T) {
	tr := trace.Generator{Ports: 48, Coflows: 160, HorizonSec: 40, MaxWidth: 8, Seed: 14}.Trace()
	got, res := goldenRun(t, tr.Coflows, CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01})
	const want = "a000000000000000:55c1000cfd637e3328465e0d8db0e1d19a75f42f95a9a8fc34c6f034983688c7"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if res.Partial != nil {
		t.Error("fault-free run reported a PartialResult")
	}
}

// TestGoldenFairWindows pins a run with the §4.2 starvation-avoidance
// windows on. Fault-free goldens must never move.
func TestGoldenFairWindows(t *testing.T) {
	tr := trace.Generator{Ports: 12, Coflows: 30, HorizonSec: 20, MaxWidth: 6, Seed: 14}.Trace()
	got, _ := goldenRun(t, tr.Coflows, CircuitOptions{
		Ports: tr.Ports, LinkBps: gbps, Delta: 0.01,
		Fair: &core.FairWindows{N: tr.Ports, T: 2, Tau: 0.05},
	})
	const want = "1e00000000000000:46c929fbe3cee5187eb388529732ccdf38d016d22c1b44613e1cb9440ee1193f"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
}

// TestGoldenFaultPlan pins a degraded-fabric run: transient and permanent
// port outages, a degraded link draw, stragglers and setup failures. Both the
// archive digest and the PartialResult are pinned.
func TestGoldenFaultPlan(t *testing.T) {
	tr := trace.Generator{Ports: 16, Coflows: 60, HorizonSec: 20, MaxWidth: 6, Seed: 14}.Trace()
	plan := &fault.Plan{
		Seed:          14,
		PortFailures:  []fault.PortFailure{{Port: 3, At: 4}, {Port: 9, At: 2, Duration: 1.5}},
		TransientRate: 0.05, MeanOutage: 0.4, Horizon: 30,
		SetupFailProb: 0.2, MaxRetries: 2,
		DegradedLinkProb: 0.2, DegradedFactor: 0.5,
		StragglerProb: 0.1, StragglerFactor: 0.6,
	}
	got, res := goldenRun(t, tr.Coflows, CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01, Faults: plan})
	const want = "2c00000000000000:33d26666ea0fd1bbad62e0ea006318abc80116178e93f05e1c217c5ff1c494c6"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if !res.Partial.Degraded() {
		t.Fatal("fault golden strands nothing; the permanent outage is not exercised")
	}
	const wantPartial = "96e1015175fec686f9e9f3b06bfea559c1a43ae95602b14b589e614a641a392a"
	if p := partialDigest(res.Partial); p != wantPartial {
		t.Errorf("partial digest %s, want %s", p, wantPartial)
	}
}

// TestGoldenFullRateFaultPlan pins a fault run on a full-rate fabric:
// transient and permanent outages and setup failures, no degraded links and
// no stragglers. Every circuit then runs at the link rate, so the engine
// schedules from the drift-free Base remainder, which the degraded plan above
// never builds.
func TestGoldenFullRateFaultPlan(t *testing.T) {
	tr := trace.Generator{Ports: 16, Coflows: 60, HorizonSec: 20, MaxWidth: 6, Seed: 14}.Trace()
	plan := &fault.Plan{
		Seed:          14,
		PortFailures:  []fault.PortFailure{{Port: 3, At: 4}, {Port: 9, At: 2, Duration: 1.5}},
		TransientRate: 0.05, MeanOutage: 0.4, Horizon: 30,
		SetupFailProb: 0.2, MaxRetries: 2,
	}
	if m, err := plan.Compile(tr.Ports); err != nil || !m.FullRate() {
		t.Fatalf("plan is not full-rate (err %v)", err)
	}
	got, res := goldenRun(t, tr.Coflows, CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01, Faults: plan})
	const want = "2c00000000000000:f385832d4f27af35044564ff86114297de40bc33a72ed3d40ae703e29c008673"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if !res.Partial.Degraded() {
		t.Fatal("fault golden strands nothing; the permanent outage is not exercised")
	}
	const wantPartial = "2d335f6ae4c320958886d148ef0c28072e1bfc8d01025adb31dbc89a563e5e33"
	if p := partialDigest(res.Partial); p != wantPartial {
		t.Errorf("partial digest %s, want %s", p, wantPartial)
	}
}
