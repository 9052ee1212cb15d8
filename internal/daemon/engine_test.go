package daemon

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/obs"
	"sunflow/internal/sim"
	"sunflow/internal/trace"
)

// streamTrace feeds a trace through an Engine as the daemon would: one
// register event per Coflow in arrival order, then advances until the live
// set drains. It fails the test on any rejection.
func streamTrace(t *testing.T, e *Engine, coflows []*coflow.Coflow) {
	t.Helper()
	registerAll(t, e, coflows)
	drain(t, e)
}

// registerAll applies one register event per Coflow in arrival order.
func registerAll(t *testing.T, e *Engine, coflows []*coflow.Coflow) {
	t.Helper()
	for _, c := range coflows {
		flows := make([]FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		if _, err := e.Apply(Event{Kind: KindRegister, At: c.Arrival, Coflow: c.ID, Flows: flows}); err != nil {
			t.Fatalf("register coflow %d: %v", c.ID, err)
		}
	}
}

// drain advances the engine until every live Coflow completes, each step to
// one second past the earliest planned completion: an instant with no event,
// where the daemon credits a window the simulator credits whole.
func drain(t *testing.T, e *Engine) {
	t.Helper()
	const pad = 1
	for i := 0; e.LiveCount() > 0; i++ {
		if i > 1000 {
			t.Fatalf("engine did not drain: %d live at t=%v", e.LiveCount(), e.Now())
		}
		next := math.Inf(1)
		for _, ls := range e.Live() {
			next = math.Min(next, ls.PlannedFinish)
		}
		if math.IsInf(next, 1) {
			t.Fatalf("no planned finish for %d live coflows", e.LiveCount())
		}
		if _, err := e.Apply(Event{Kind: KindAdvance, At: next + pad}); err != nil {
			t.Fatalf("advance to %v: %v", next+pad, err)
		}
	}
}

// dense48 is a generator shaped like the dense48 benchmark workload: 48
// ports, MaxWidth 4 and arrivals dense enough to keep tens of Coflows live.
// Arrivals are shifted by id microseconds (see TestEngineMatchesSimulator).
func dense48(seed int64) *trace.Trace {
	tr := trace.Generator{Ports: 48, Coflows: 200, HorizonSec: 5, MaxWidth: 4, Seed: seed}.Trace()
	for _, cf := range tr.Coflows {
		cf.Arrival += float64(cf.ID) * 1e-6
	}
	return tr
}

// TestEngineMatchesSimulator is the equivalence property the daemon's
// correctness stands on: streaming a workload's arrivals through the Engine —
// register events at each arrival instant, then advancing time — produces
// per-Coflow completion times and switch counts bit-identical to replaying
// the same workload through sim.RunCircuit, and the two run the same
// scheduling passes: equal pass, intra-run and plan-cache-skip counts. The
// dense48 cases keep tens of Coflows live on 48 ports, where the plan cache
// absorbs most intra runs.
//
// The daemon replans once per registration, while the simulator admits
// Coflows sharing an arrival instant in one pass. Completion times come out
// bit-identical either way, but the pass, intra-run and skip counts this test
// also compares do not. The dense48 generator quantizes arrivals to
// milliseconds and often repeats an instant, so those cases shift every
// arrival by its id in microseconds: instants become distinct and the order
// is kept.
//
// Every case drains one second past each planned completion, so it also
// checks that a credit at an instant with no event leaves the schedule
// bit-identical: crediting telescopes in whole bytes, so splitting a window
// cannot change a remainder.
func TestEngineMatchesSimulator(t *testing.T) {
	type tc struct {
		name string
		tr   *trace.Trace
	}
	var cases []tc
	for seed := int64(1); seed <= 6; seed++ {
		tr := trace.Generator{Ports: 12, Coflows: 30, HorizonSec: 40, MaxWidth: 6, Seed: seed}.Trace()
		cases = append(cases, tc{fmt.Sprintf("seed=%d", seed), tr})
	}
	for seed := int64(1); seed <= 2; seed++ {
		cases = append(cases, tc{fmt.Sprintf("dense48/seed=%d", seed), dense48(seed)})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tr := c.tr
			cfg := EngineConfig{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}

			so := obs.NewWith(obs.NewRegistry(), nil)
			ref, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{
				Ports: tr.Ports, LinkBps: cfg.LinkBps, Delta: cfg.Delta, Obs: so,
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}

			eo := obs.NewWith(obs.NewRegistry(), nil)
			e, err := NewEngine(cfg, eo)
			if err != nil {
				t.Fatal(err)
			}
			registerAll(t, e, tr.Coflows)
			drain(t, e)
			for _, n := range []struct {
				name     string
				sim, eng int64
			}{
				{"sched passes", so.SchedPasses.Load(), eo.SchedPasses.Load()},
				{"intra passes", so.IntraPasses.Load(), eo.IntraPasses.Load()},
				{"intra skipped", so.IntraSkipped.Load(), eo.IntraSkipped.Load()},
			} {
				if n.sim != n.eng {
					t.Errorf("%s: sim %d, engine %d", n.name, n.sim, n.eng)
				}
			}

			got := e.Completions()
			if len(got) != len(ref.CCT) {
				t.Fatalf("completions: engine %d, sim %d", len(got), len(ref.CCT))
			}
			for id, want := range ref.CCT {
				c, ok := got[id]
				if !ok {
					t.Fatalf("coflow %d missing from engine completions", id)
				}
				if c.CCT != want {
					t.Errorf("coflow %d: CCT engine %v, sim %v", id, c.CCT, want)
				}
				if c.Finish != ref.Finish[id] {
					t.Errorf("coflow %d: finish engine %v, sim %v", id, c.Finish, ref.Finish[id])
				}
				if c.Switches != ref.SwitchCount[id] {
					t.Errorf("coflow %d: switches engine %d, sim %d", id, c.Switches, ref.SwitchCount[id])
				}
			}
		})
	}
}

// TestEngineNonEventAdvanceDrift pins that advances to instants with no event
// cause no drift. Such an advance credits the window up to it on its own,
// where the simulator credits the whole window between two events at once.
// When crediting summed float fractions, dense48 seed 5 finished one Coflow
// an ulp later in the daemon; whole-byte credit telescopes, so every Coflow
// must complete with the simulator's switch count and exactly its CCT.
func TestEngineNonEventAdvanceDrift(t *testing.T) {
	tr := dense48(5)
	cfg := EngineConfig{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}
	ref, err := sim.RunCircuit(tr.Coflows, sim.CircuitOptions{Ports: cfg.Ports, LinkBps: cfg.LinkBps, Delta: cfg.Delta})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	registerAll(t, e, tr.Coflows)
	drain(t, e)
	got := e.Completions()
	if len(got) != len(ref.CCT) {
		t.Fatalf("completions: engine %d, sim %d", len(got), len(ref.CCT))
	}
	for id, want := range ref.CCT {
		c, ok := got[id]
		if !ok {
			t.Fatalf("coflow %d missing from engine completions", id)
		}
		if c.CCT != want {
			t.Errorf("coflow %d: CCT engine %v, sim %v", id, c.CCT, want)
		}
		if c.Switches != ref.SwitchCount[id] {
			t.Errorf("coflow %d: switches engine %d, sim %d", id, c.Switches, ref.SwitchCount[id])
		}
	}
}

// TestEngineObserverDoesNotAffectState pins the determinism boundary: running
// with metrics enabled must yield the same digest as running without.
func TestEngineObserverDoesNotAffectState(t *testing.T) {
	tr := trace.Generator{Ports: 8, Coflows: 12, HorizonSec: 10, MaxWidth: 4, Seed: 7}.Trace()
	cfg := EngineConfig{Ports: tr.Ports, LinkBps: 1e9, Delta: 0.01}

	bare, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, bare, tr.Coflows)

	observed, err := NewEngine(cfg, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, observed, tr.Coflows)

	if bare.Digest() != observed.Digest() {
		t.Fatalf("observer changed engine state: %s vs %s", bare.Digest(), observed.Digest())
	}
}

// TestEngineDigestDeterminism: same events, same digest; different events,
// different digest.
func TestEngineDigestDeterminism(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	mk := func(bytes float64) string {
		e, err := NewEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindRegister, At: 1, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: bytes}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindAdvance, At: 100}); err != nil {
			t.Fatal(err)
		}
		return e.Digest()
	}
	if mk(1e6) != mk(1e6) {
		t.Error("identical event sequences produced different digests")
	}
	if mk(1e6) == mk(2e6) {
		t.Error("different event sequences produced identical digests")
	}
}

// TestEngineRegisterIdempotent: an exact duplicate registration is accepted
// as a no-op (client retry of an acked request); a conflicting one is
// rejected and leaves completions unchanged.
func TestEngineRegisterIdempotent(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: KindRegister, At: 0, Coflow: 3, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}
	if applied, err := e.Apply(ev); err != nil || !applied {
		t.Fatalf("first register: applied=%v err=%v", applied, err)
	}
	if applied, err := e.Apply(ev); err != nil || applied {
		t.Fatalf("duplicate register: applied=%v err=%v (want no-op)", applied, err)
	}
	conflict := ev
	conflict.Flows = []FlowSpec{{Src: 0, Dst: 1, Bytes: 5e6}}
	if _, err := e.Apply(conflict); !errors.Is(err, ErrDuplicateCoflow) {
		t.Fatalf("conflicting register: err=%v, want ErrDuplicateCoflow", err)
	}
	drain(t, e)
	if c, ok := e.Completion(3); !ok || c.CCT <= 0 {
		t.Fatalf("coflow 3 completion = %+v, ok=%v", c, ok)
	}
}

// TestEngineCompletedRegisterIdempotencyChecksSpec: re-registering a finished
// id is idempotent only for a byte-identical registration; different flows or
// priority at the same arrival time must reject, exactly like the live-set
// path, instead of being silently acked as a duplicate.
func TestEngineCompletedRegisterIdempotencyChecksSpec(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}
	if _, err := e.Apply(ev); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	if _, ok := e.Completion(1); !ok {
		t.Fatal("coflow 1 did not complete")
	}
	if applied, err := e.Apply(ev); err != nil || applied {
		t.Fatalf("identical re-register after completion: applied=%v err=%v (want no-op)", applied, err)
	}
	diffFlows := ev
	diffFlows.Flows = []FlowSpec{{Src: 0, Dst: 1, Bytes: 7e6}}
	if _, err := e.Apply(diffFlows); !errors.Is(err, ErrDuplicateCoflow) {
		t.Fatalf("re-register with different flows: err=%v, want ErrDuplicateCoflow", err)
	}
	diffPrio := ev
	diffPrio.Priority = 5
	if _, err := e.Apply(diffPrio); !errors.Is(err, ErrDuplicateCoflow) {
		t.Fatalf("re-register with different priority: err=%v, want ErrDuplicateCoflow", err)
	}
}

// TestEngineRejectsBadEvents: validation failures reject deterministically
// and leave the live set untouched.
func TestEngineRejectsBadEvents(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{Kind: "bogus", At: 0},
		{Kind: KindRegister, At: math.NaN(), Coflow: 1},
		{Kind: KindRegister, At: -1, Coflow: 1},
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 9, Dst: 0, Bytes: 1}}},
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: math.Inf(1)}}},
		{Kind: KindFault, At: 0, Port: -1},
		{Kind: KindComplete, At: 0, Coflow: 42},
	}
	for _, ev := range bad {
		if _, err := e.Apply(ev); err == nil {
			t.Errorf("event %+v: accepted, want rejection", ev)
		}
	}
	if e.LiveCount() != 0 || e.DoneCount() != 0 {
		t.Fatalf("rejections mutated state: live=%d done=%d", e.LiveCount(), e.DoneCount())
	}
}

// TestEngineRejectsUnrepresentableTimes: an instant no int64 nanosecond tick
// holds — an At of 1e300 s, or a fault whose At+Duration is — is rejected
// with ErrBadEvent before it touches the state machine. The rejection still
// folds into the digest, so a replayed WAL re-rejects identically.
func TestEngineRejectsUnrepresentableTimes(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 1, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e8}}}); err != nil {
		t.Fatal(err)
	}
	now, plan, live, digest := e.Now(), e.Plan(), e.Live(), e.Digest()
	for _, ev := range []Event{
		{Kind: KindRegister, At: 1e300, Coflow: 2, Flows: []FlowSpec{{Src: 2, Dst: 3, Bytes: 1}}},
		{Kind: KindAdvance, At: 1e300},
		{Kind: KindComplete, At: 9.3e9, Coflow: 1},
		{Kind: KindFault, At: 2, Port: 0, Duration: 1e300},
	} {
		if _, err := e.Apply(ev); !errors.Is(err, ErrBadEvent) {
			t.Errorf("event %+v: got %v, want ErrBadEvent", ev, err)
		}
		if e.Digest() == digest {
			t.Errorf("event %+v: rejection not folded into the digest", ev)
		}
		digest = e.Digest()
	}
	if e.Now() != now || !reflect.DeepEqual(e.Plan(), plan) || !reflect.DeepEqual(e.Live(), live) || e.DoneCount() != 0 {
		t.Fatal("a rejected event changed the engine state")
	}
}

// TestEnginePriorityOverride: a higher-priority Coflow is scheduled ahead of
// an equal-length rival registered at the same instant, completing first even
// though shortest-first alone would favor the rival's lower id.
func TestEnginePriorityOverride(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both Coflows demand the same port pair, so they serialize; priority
	// decides who goes first.
	for _, ev := range []Event{
		{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e8}}},
		{Kind: KindRegister, At: 0, Coflow: 2, Priority: 10, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e8}}},
	} {
		if _, err := e.Apply(ev); err != nil {
			t.Fatalf("register %d: %v", ev.Coflow, err)
		}
	}
	drain(t, e)
	c1, _ := e.Completion(1)
	c2, _ := e.Completion(2)
	if !(c2.Finish < c1.Finish) {
		t.Fatalf("priority override ignored: prio finish %v, default finish %v", c2.Finish, c1.Finish)
	}
}

// TestEngineForcedComplete: an external complete event retires a live Coflow
// immediately and frees its planned capacity.
func TestEngineForcedComplete(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e9}}}); err != nil {
		t.Fatal(err)
	}
	if applied, err := e.Apply(Event{Kind: KindComplete, At: 0.5, Coflow: 1}); err != nil || !applied {
		t.Fatalf("complete: applied=%v err=%v", applied, err)
	}
	c, ok := e.Completion(1)
	if !ok || !c.Forced || c.Finish != 0.5 {
		t.Fatalf("forced completion = %+v, ok=%v", c, ok)
	}
	// Completing again is idempotent.
	if applied, err := e.Apply(Event{Kind: KindComplete, At: 0.7, Coflow: 1}); err != nil || applied {
		t.Fatalf("re-complete: applied=%v err=%v (want no-op)", applied, err)
	}
}

// TestEngineTinyFlowsComplete: flows of a few whole bytes transmit in under
// a nanosecond at 100 Gb/s, below the planner's time noise floor. They must
// still be planned and complete, or the Coflow never retires and every
// later advance fails.
func TestEngineTinyFlowsComplete(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 100e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, b := range []float64{1, 0.6, 12} {
		flows := []FlowSpec{{Src: id, Dst: id + 1, Bytes: b}}
		if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: id + 1, Flows: flows}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Apply(Event{Kind: KindAdvance, At: 1}); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= 3; id++ {
		c, ok := e.Completion(id)
		if !ok || c.Forced || c.Finish <= cfg.Delta || c.Finish > cfg.Delta+1e-6 {
			t.Fatalf("coflow %d: completion %+v, ok=%v; want a finish just after δ", id, c, ok)
		}
	}
}

// TestEngineFaultTransient: a transient outage on the serving port delays the
// victim Coflow but it still completes; a fault on an unused port is a no-op
// for the schedule.
func TestEngineFaultTransient(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	run := func(faultPort int) Completion {
		e, err := NewEngine(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e9}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Apply(Event{Kind: KindFault, At: 0.1, Port: faultPort, Duration: 2}); err != nil {
			t.Fatal(err)
		}
		drain(t, e)
		c, ok := e.Completion(1)
		if !ok {
			t.Fatal("coflow 1 never completed")
		}
		return c
	}
	clean := run(3)   // port 3 carries nothing
	delayed := run(0) // port 0 is the source
	if delayed.Finish <= clean.Finish {
		t.Fatalf("outage did not delay completion: faulty %v, clean %v", delayed.Finish, clean.Finish)
	}
	if delayed.Stranded {
		t.Fatal("transient outage stranded the coflow")
	}
}

// TestEngineFaultPermanent: a permanent outage strands the flows touching the
// dead port; the Coflow still retires (stranded) and routable demand drains.
func TestEngineFaultPermanent(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 0, Coflow: 1, Flows: []FlowSpec{
		{Src: 0, Dst: 1, Bytes: 1e8},
		{Src: 2, Dst: 3, Bytes: 1e8},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindFault, At: 0.0001, Port: 3, Duration: 0}); err != nil {
		t.Fatal(err)
	}
	drain(t, e)
	c, ok := e.Completion(1)
	if !ok {
		t.Fatal("coflow 1 never retired")
	}
	if !c.Stranded || c.Bytes <= 0 {
		t.Fatalf("permanent outage not recorded: %+v", c)
	}
}

// TestEngineLateEventAppliesAtCurrentClock: logical time never goes
// backwards — an event stamped before the Engine clock applies "late" at the
// clock, with its At still counting as the arrival.
func TestEngineLateEventAppliesAtCurrentClock(t *testing.T) {
	cfg := EngineConfig{Ports: 4, LinkBps: 1e9, Delta: 0.01}
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindAdvance, At: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply(Event{Kind: KindRegister, At: 3, Coflow: 1, Flows: []FlowSpec{{Src: 0, Dst: 1, Bytes: 1e6}}}); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("clock moved backwards: now=%v", e.Now())
	}
	drain(t, e)
	c, _ := e.Completion(1)
	if c.Arrival != 3 {
		t.Fatalf("arrival = %v, want the event's At (3)", c.Arrival)
	}
	if c.Finish < 10 {
		t.Fatalf("finish %v precedes the clock the Coflow was admitted at", c.Finish)
	}
	if finish, _ := core.Nanos(c.Finish); c.CCT != core.Seconds(finish-3e9) {
		t.Fatalf("CCT %v inconsistent with arrival 3, finish %v", c.CCT, c.Finish)
	}
}
