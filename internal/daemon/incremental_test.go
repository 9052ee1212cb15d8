package daemon

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunflow/internal/obs"
	"sunflow/internal/trace"
)

// twinEngines builds one incremental engine and one with SUNFLOW_FULL_REPLAN=1
// for the same fabric, each with its own observer.
func twinEngines(t *testing.T, ports int) (inc, full *Engine, oi, of *obs.Observer) {
	t.Helper()
	cfg := EngineConfig{Ports: ports, LinkBps: 1e9, Delta: 0.01}
	oi = obs.NewWith(obs.NewRegistry(), nil)
	of = obs.NewWith(obs.NewRegistry(), nil)
	var err error
	t.Setenv("SUNFLOW_FULL_REPLAN", "")
	if inc, err = NewEngine(cfg, oi); err != nil {
		t.Fatal(err)
	}
	t.Setenv("SUNFLOW_FULL_REPLAN", "1")
	if full, err = NewEngine(cfg, of); err != nil {
		t.Fatal(err)
	}
	return inc, full, oi, of
}

// incrementalEventScript turns a seed into a stream of daemon events: register
// events in arrival order interleaved with advances at arbitrary instants,
// occasionally a forced completion, and (in some cases) a fault — which gates
// the incremental path off and must do so identically on both engines.
func incrementalEventScript(rng *rand.Rand, withFault bool) []Event {
	tr := trace.Generator{
		Ports:      6 + rng.Intn(4),
		Coflows:    10 + rng.Intn(12),
		HorizonSec: 2 + rng.Float64()*4,
		MaxWidth:   1 + rng.Intn(4),
		Seed:       rng.Int63(),
	}.Trace()
	evs := make([]Event, 0, 2*len(tr.Coflows)+8)
	for i, c := range tr.Coflows {
		flows := make([]FlowSpec, 0, len(c.Flows))
		for _, f := range c.Flows {
			flows = append(flows, FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes})
		}
		ev := Event{Kind: KindRegister, At: c.Arrival, Coflow: c.ID, Flows: flows}
		if rng.Intn(4) == 0 {
			ev.Priority = 1
		}
		evs = append(evs, ev)
		if rng.Intn(3) == 0 {
			// Advance partway into the gap before the next arrival, so
			// replans happen at instants that are not arrival times.
			evs = append(evs, Event{Kind: KindAdvance, At: c.Arrival + rng.Float64()})
		}
		if withFault && i == len(tr.Coflows)/2 {
			evs = append(evs, Event{Kind: KindFault, At: c.Arrival + 0.1, Port: rng.Intn(tr.Ports), Duration: 0.5})
		}
		if rng.Intn(8) == 0 {
			evs = append(evs, Event{Kind: KindComplete, At: c.Arrival + rng.Float64()*0.5, Coflow: c.ID})
		}
	}
	// Drain: march time well past the horizon in a few strides.
	last := tr.Coflows[len(tr.Coflows)-1].Arrival
	for k := 1; k <= 4; k++ {
		evs = append(evs, Event{Kind: KindAdvance, At: last + float64(k)*200})
	}
	return evs
}

// applyBoth feeds the same event to both engines; events an engine rejects
// must be rejected by the other too.
func applyBoth(t *testing.T, inc, full *Engine, ev Event) bool {
	t.Helper()
	ai, erri := inc.Apply(ev)
	af, errf := full.Apply(ev)
	if (erri == nil) != (errf == nil) || ai != af {
		t.Fatalf("event %+v: incremental applied=%v err=%v, full applied=%v err=%v", ev, ai, erri, af, errf)
	}
	return erri == nil
}

// TestQuickEngineIncrementalBitExact is the daemon side of the differential
// property: over random event streams, an engine with schedule reuse enabled
// must stay bit-identical to a full-replan engine after every single event —
// same digest chain (which folds the whole plan), and at the end the same
// completions and plan.
func TestQuickEngineIncrementalBitExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		withFault := rng.Intn(4) == 0
		evs := incrementalEventScript(rng, withFault)
		inc, full, _, _ := twinEngines(t, 16)
		for i, ev := range evs {
			applyBoth(t, inc, full, ev)
			if inc.Digest() != full.Digest() {
				t.Logf("seed %d: digests diverge after event %d (%+v)", seed, i, ev)
				return false
			}
		}
		if !reflect.DeepEqual(inc.Completions(), full.Completions()) {
			t.Logf("seed %d: completions diverge", seed)
			return false
		}
		if !reflect.DeepEqual(inc.Plan(), full.Plan()) {
			t.Logf("seed %d: final plans diverge", seed)
			return false
		}
		if withFault && inc.outages.N != 0 {
			// The transient ended during the stream: the fault view must be
			// gone, so reuse ran again on the passes after it.
			t.Logf("seed %d: %d outages retained after the stream", seed, inc.outages.N)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineIncrementalSkipReconciliation pins the daemon's
// sched.intra_skipped counter to ground truth: across the same event stream,
// the incremental engine's intra passes plus skips must equal the FullReplan
// engine's intra passes, pass for pass, and a full-replan engine never skips.
func TestEngineIncrementalSkipReconciliation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		evs := incrementalEventScript(rng, false)
		inc, full, oi, of := twinEngines(t, 16)
		for _, ev := range evs {
			applyBoth(t, inc, full, ev)
		}
		if of.IntraSkipped.Load() != 0 {
			t.Logf("seed %d: full-replan engine skipped %d intra passes", seed, of.IntraSkipped.Load())
			return false
		}
		if oi.SchedPasses.Load() != of.SchedPasses.Load() {
			t.Logf("seed %d: sched passes diverge: %d vs %d", seed, oi.SchedPasses.Load(), of.SchedPasses.Load())
			return false
		}
		if oi.IntraPasses.Load()+oi.IntraSkipped.Load() != of.IntraPasses.Load() {
			t.Logf("seed %d: intra %d + skipped %d != full intra %d", seed,
				oi.IntraPasses.Load(), oi.IntraSkipped.Load(), of.IntraPasses.Load())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
