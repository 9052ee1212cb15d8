package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
	"sunflow/internal/obs/replay"
	"sunflow/internal/varys"
)

// tracedCircuit runs the circuit simulator with a buffering sink and returns
// the result plus the captured event stream.
func tracedCircuit(t *testing.T, cs []*coflow.Coflow, opts CircuitOptions) (Result, []obs.Event) {
	t.Helper()
	sink := &obs.SliceSink{}
	opts.Obs = obs.NewWith(obs.NewRegistry(), sink)
	res, err := RunCircuit(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, sink.Events()
}

func tracedPacket(t *testing.T, cs []*coflow.Coflow, opts PacketOptions) (Result, []obs.Event) {
	t.Helper()
	sink := &obs.SliceSink{}
	opts.Obs = obs.NewWith(obs.NewRegistry(), sink)
	res, err := RunPacketOpts(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, sink.Events()
}

func sameResult(a, b Result) bool {
	if len(a.CCT) != len(b.CCT) {
		return false
	}
	for id, v := range a.CCT {
		if b.CCT[id] != v {
			return false
		}
	}
	for id, v := range a.Finish {
		if b.Finish[id] != v {
			return false
		}
	}
	return true
}

func sameEvents(a, b []obs.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestQuickZeroPlanBitExact is the acceptance property: a present-but-zero
// FaultPlan must leave both simulators bit-identical to the fault-free
// baseline — same CCTs, same Finish instants, same trace event stream.
func TestQuickZeroPlanBitExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 6, 5, 6, 2)

		base, baseEv := tracedCircuit(t, cs, CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01})
		zero, zeroEv := tracedCircuit(t, cs, CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01, Faults: &fault.Plan{Seed: seed}})
		if !sameResult(base, zero) || !sameEvents(baseEv, zeroEv) || zero.Partial != nil {
			return false
		}

		pbase, pbaseEv := tracedPacket(t, cs, PacketOptions{Ports: 5, LinkBps: gbps, Alloc: varys.Allocator{}})
		pzero, pzeroEv := tracedPacket(t, cs, PacketOptions{Ports: 5, LinkBps: gbps, Alloc: varys.Allocator{}, Faults: &fault.Plan{Seed: seed}})
		return sameResult(pbase, pzero) && sameEvents(pbaseEv, pzeroEv) && pzero.Partial == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSeededFaultsDeterministic: the same plan replayed on the same
// workload reproduces the run exactly, events included.
func TestQuickSeededFaultsDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 6, 5, 6, 2)
		plan := &fault.Plan{
			Seed:          seed,
			SetupFailProb: 0.3,
			TransientRate: 0.1, MeanOutage: 0.2, Horizon: 10,
			DegradedLinkProb: 0.2,
			StragglerProb:    0.2,
		}
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01, Faults: plan}
		a, aEv := tracedCircuit(t, cs, opts)
		b, bEv := tracedCircuit(t, cs, opts)
		if !sameResult(a, b) || !sameEvents(aEv, bEv) {
			return false
		}
		popts := PacketOptions{Ports: 5, LinkBps: gbps, Alloc: varys.Allocator{}, Faults: plan}
		pa, paEv := tracedPacket(t, cs, popts)
		pb, pbEv := tracedPacket(t, cs, popts)
		return sameResult(pa, pb) && sameEvents(paEv, pbEv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestCircuitRetryChargesDelta: two scripted setup failures on a one-flow
// workload cost exactly 5δ over the baseline CCT (δ+δ failed attempt,
// δ+2δ backoffs, δ success = 6δ total setup vs the baseline's 1δ), and the
// trace shows each retry with the per-attempt δ.
func TestCircuitRetryChargesDelta(t *testing.T) {
	const delta = 0.01
	cs := func() []*coflow.Coflow {
		c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 5e6}})
		return []*coflow.Coflow{c.Normalize()}
	}

	base, err := RunCircuit(cs(), CircuitOptions{Ports: 2, LinkBps: gbps, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	faulty, ev := tracedCircuit(t, cs(), CircuitOptions{
		Ports: 2, LinkBps: gbps, Delta: delta,
		Faults: &fault.Plan{FailFirstSetups: 2},
	})
	got, want := faulty.CCT[1]-base.CCT[1], 5*delta
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("retry overhead = %v, want 5δ = %v", got, want)
	}
	retries := 0
	for _, e := range ev {
		if e.Kind == obs.KindCircuitRetry {
			retries++
			if e.Dur != delta {
				t.Fatalf("retry event Dur = %v, want per-attempt δ %v", e.Dur, delta)
			}
		}
	}
	if retries != 2 {
		t.Fatalf("retry events = %d, want 2", retries)
	}
	if v := replay.Lint(ev); len(v) != 0 {
		t.Fatalf("retried trace has lint violations: %v", v)
	}
}

// TestPermanentFailureQuarantines: a port that dies forever strands the
// flows that need it into PartialResult, the rest of the workload completes,
// and the emitted trace stays lint-clean.
func TestPermanentFailureQuarantines(t *testing.T) {
	mk := func() []*coflow.Coflow {
		doomed := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 80e6}})
		fine := coflow.New(2, 0, []coflow.Flow{{Src: 2, Dst: 3, Bytes: 40e6}})
		return []*coflow.Coflow{doomed.Normalize(), fine.Normalize()}
	}
	plan := &fault.Plan{PortFailures: []fault.PortFailure{{Port: 1, At: 0.02}}}

	for name, run := range map[string]func() (Result, []obs.Event){
		"circuit": func() (Result, []obs.Event) {
			return tracedCircuit(t, mk(), CircuitOptions{Ports: 4, LinkBps: gbps, Delta: 0.01, Faults: plan})
		},
		"packet": func() (Result, []obs.Event) {
			return tracedPacket(t, mk(), PacketOptions{Ports: 4, LinkBps: gbps, Alloc: fabric.FairSharing{}, Faults: plan})
		},
	} {
		res, ev := run()
		if !res.Partial.Degraded() {
			t.Fatalf("%s: no PartialResult despite a dead port", name)
		}
		if _, ok := res.CCT[1]; ok {
			t.Fatalf("%s: quarantined coflow 1 still has a CCT", name)
		}
		if res.Partial.Bytes <= 0 {
			t.Fatalf("%s: stranded bytes = %v", name, res.Partial.Bytes)
		}
		for _, s := range res.Partial.Stranded {
			if s.Coflow != 1 {
				t.Fatalf("%s: stranded wrong coflow: %+v", name, s)
			}
		}
		if _, ok := res.CCT[2]; !ok {
			t.Fatalf("%s: unaffected coflow 2 did not complete", name)
		}
		stranded, downs := 0, 0
		for _, e := range ev {
			switch e.Kind {
			case obs.KindFlowStranded:
				stranded++
			case obs.KindPortDown:
				downs++
			}
		}
		if stranded == 0 || downs == 0 {
			t.Fatalf("%s: trace missing fault events (stranded=%d downs=%d)", name, stranded, downs)
		}
		if v := replay.Lint(ev); len(v) != 0 {
			t.Fatalf("%s: trace has lint violations: %v", name, v)
		}
	}
}

// TestQuickFaultyRunsLintClean: whatever a seeded fault plan does to a random
// workload, the emitted trace must satisfy every replay invariant, all CCTs
// stay finite, and every coflow lands in exactly one of CCT or Partial.
func TestQuickFaultyRunsLintClean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 5, 4, 5, 2)
		plan := &fault.Plan{
			Seed:          seed,
			SetupFailProb: 0.4,
			TransientRate: 0.2, MeanOutage: 0.3, Horizon: 8,
			DegradedLinkProb: 0.3,
			StragglerProb:    0.3,
		}
		res, ev := tracedCircuit(t, cs, CircuitOptions{Ports: 4, LinkBps: gbps, Delta: 0.01, Faults: plan})
		if len(replay.Lint(ev)) != 0 {
			return false
		}
		quarantined := map[int]bool{}
		if res.Partial != nil {
			for _, s := range res.Partial.Stranded {
				quarantined[s.Coflow] = true
			}
		}
		for _, c := range cs {
			cct, done := res.CCT[c.ID]
			if done == quarantined[c.ID] {
				return false // must be exactly one of completed / quarantined
			}
			if done && (math.IsNaN(cct) || math.IsInf(cct, 0) || cct < 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
