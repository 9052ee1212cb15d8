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
// ports. Fault-free goldens move only with a deliberate, explained change to
// the schedule.
func TestGoldenFaultFreeFacebook48(t *testing.T) {
	tr := trace.Generator{Ports: 48, Coflows: 160, HorizonSec: 40, MaxWidth: 8, Seed: 14}.Trace()
	got, res := goldenRun(t, tr.Coflows, CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01})
	const want = "a000000000000000:86080a96da2ba710352a709acf9dc7c831df7dca134cdd8c90ca6b9141734b1f"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if res.Partial != nil {
		t.Error("fault-free run reported a PartialResult")
	}
}

// TestGoldenFairWindows pins a run with the §4.2 starvation-avoidance
// windows on.
func TestGoldenFairWindows(t *testing.T) {
	tr := trace.Generator{Ports: 12, Coflows: 30, HorizonSec: 20, MaxWidth: 6, Seed: 14}.Trace()
	got, _ := goldenRun(t, tr.Coflows, CircuitOptions{
		Ports: tr.Ports, LinkBps: gbps, Delta: 0.01,
		Fair: &core.FairWindows{N: tr.Ports, T: 2, Tau: 0.05},
	})
	const want = "1e00000000000000:fe772cff74bc26bce5a06a072d2fc34d93be0be4b72f8f4536f7078abd2f451a"
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
	const want = "2c00000000000000:d51b630022c9317ba3899ac177703f7a7589ec2aed012b8fb32fa8ea2fed72bf"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if !res.Partial.Degraded() {
		t.Fatal("fault golden strands nothing; the permanent outage is not exercised")
	}
	const wantPartial = "15a5fc3c77ecca40b45ef19041b0ae5c412ea9a7a659d934548cb924293b8220"
	if p := partialDigest(res.Partial); p != wantPartial {
		t.Errorf("partial digest %s, want %s", p, wantPartial)
	}
}

// TestGoldenFullRateFaultPlan pins a fault run on a full-rate fabric:
// transient and permanent outages and setup failures, no degraded links and
// no stragglers, so every circuit runs at the link rate and only setup
// retries and outages cut what it delivers.
func TestGoldenFullRateFaultPlan(t *testing.T) {
	tr := trace.Generator{Ports: 16, Coflows: 60, HorizonSec: 20, MaxWidth: 6, Seed: 14}.Trace()
	plan := &fault.Plan{
		Seed:          14,
		PortFailures:  []fault.PortFailure{{Port: 3, At: 4}, {Port: 9, At: 2, Duration: 1.5}},
		TransientRate: 0.05, MeanOutage: 0.4, Horizon: 30,
		SetupFailProb: 0.2, MaxRetries: 2,
	}
	got, res := goldenRun(t, tr.Coflows, CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01, Faults: plan})
	const want = "2c00000000000000:d0435af0e941b556f85cf97887e8f5d1d213cf2d33874aba29e95640723ac849"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if !res.Partial.Degraded() {
		t.Fatal("fault golden strands nothing; the permanent outage is not exercised")
	}
	const wantPartial = "656bce2670633898cb0e7cd14ef90556f84579270e541ec7a703f9bac786162e"
	if p := partialDigest(res.Partial); p != wantPartial {
		t.Errorf("partial digest %s, want %s", p, wantPartial)
	}
}
