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
// bit-identical to a full rebuild), so CI runs them both ways. They were
// re-pinned when instants became integer-nanosecond ticks; CHANGES.md
// carries the ledger of what moved.

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
	const want = "a000000000000000:6d2b0f8afac9c0807874c8b1cf154770a6685d5d43b82fd406a96ddf51130cad"
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
		Fair: &core.FairWindows{N: tr.Ports, T: ns(2), Tau: ns(0.05)},
	})
	const want = "1e00000000000000:2fd0302bf4e14b430119fe6a1c8f528ddd7065ac83cb7bf199893254fc79f938"
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
	const want = "2c00000000000000:1ae0d3748398241f3cb2b4d439bb0d2e445d676a653dcef6de8b95bc07d47d86"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if !res.Partial.Degraded() {
		t.Fatal("fault golden strands nothing; the permanent outage is not exercised")
	}
	const wantPartial = "37d9bf6b31bfa2ea2eabdefff7530cdd27a5fc7ab0aff2ad18a6fecaecb48ce8"
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
	const want = "2c00000000000000:dc05a2941d12093c36866b8832baa6f4c66bd67d5854884d788f123cb54dab2b"
	if got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
	if !res.Partial.Degraded() {
		t.Fatal("fault golden strands nothing; the permanent outage is not exercised")
	}
	const wantPartial = "6082d0bc350fb6fce2abf5f483c7e472966b8b06c4c05a5b3c1a1defd9a19d56"
	if p := partialDigest(res.Partial); p != wantPartial {
		t.Errorf("partial digest %s, want %s", p, wantPartial)
	}
}
