package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
	"sunflow/internal/trace"
)

// observedCircuit runs RunCircuit with a fresh observer and trace sink,
// returning the observer so tests can read scheduler-cost counters.
func observedCircuit(t *testing.T, cs []*coflow.Coflow, opts CircuitOptions) (Result, []obs.Event, *obs.Observer) {
	t.Helper()
	sink := &obs.SliceSink{}
	o := obs.NewWith(obs.NewRegistry(), sink)
	opts.Obs = o
	res, err := RunCircuit(cs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, sink.Events(), o
}

// TestQuickIncrementalBitExact is the differential property the incremental
// replanner stands on: across arrival-dense random workloads — with fair
// windows, seeded fault plans, or the reference intra path mixed in — a run
// with dirty-prefix schedule reuse must be bit-identical to one with
// SUNFLOW_FULL_REPLAN=1, down to the full Result and the trace event stream.
func TestQuickIncrementalBitExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A short horizon relative to total demand keeps many Coflows live at
		// once, so replans have deep priority orders to reuse.
		cs := randomWorkload(rng, 14, 5, 6, 1.0)
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01}
		switch rng.Intn(5) {
		case 0:
			opts.Fair = &core.FairWindows{N: 5, T: ns(1), Tau: ns(0.05)}
		case 1:
			// Fault plans force the full rebuild on both sides; the case
			// guards the gate, not the reuse.
			opts.Faults = &fault.Plan{
				Seed:          seed,
				SetupFailProb: 0.3,
				TransientRate: 0.15, MeanOutage: 0.25, Horizon: 8,
				DegradedLinkProb: 0.25,
				StragglerProb:    0.25,
			}
		case 2:
			opts.Faults = &fault.Plan{Seed: seed} // zero plan: fault machinery on, no faults
		case 3:
			opts = withReference(opts)
		}
		setFullReplan(t, false)
		got, gotEv, _ := observedCircuit(t, cs, opts)
		setFullReplan(t, true)
		want, wantEv, _ := observedCircuit(t, cs, opts)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: results diverge", seed)
			return false
		}
		if !sameEvents(gotEv, wantEv) {
			t.Logf("seed %d: trace streams diverge", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntraSkippedReconciles pins sched.intra_skipped to ground truth:
// on any fault-free workload, the incremental run's IntraPasses plus
// IntraSkipped must equal the IntraPasses of a full-replan run over the same
// schedule passes, and a full-replan run must never skip.
func TestQuickIntraSkippedReconciles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 16, 5, 6, 1.0)
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01}
		if rng.Intn(3) == 0 {
			opts.Fair = &core.FairWindows{N: 5, T: ns(1), Tau: ns(0.05)}
		}
		setFullReplan(t, false)
		_, _, oi := observedCircuit(t, cs, opts)
		setFullReplan(t, true)
		_, _, of := observedCircuit(t, cs, opts)
		if of.IntraSkipped.Load() != 0 {
			t.Logf("seed %d: full-replan run skipped %d intra passes", seed, of.IntraSkipped.Load())
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalSkipsDominateDenseWorkload guards the optimization's point:
// on an arrival-dense trace the cache must absorb at least two thirds of the
// would-be intra invocations (the ≥3× reduction the benchmark measures). The
// fabric is port-sparse — many ports, narrow Coflows, the datacenter shape
// the paper targets — so most Coflows' port contexts survive a pass intact.
func TestIncrementalSkipsDominateDenseWorkload(t *testing.T) {
	tr := trace.Generator{Ports: 48, Coflows: 200, HorizonSec: 5, MaxWidth: 4, Seed: 1}.Trace()
	_, _, o := observedCircuit(t, tr.Coflows, CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01})
	ran, skipped := o.IntraPasses.Load(), o.IntraSkipped.Load()
	if skipped < 2*ran {
		t.Fatalf("intra passes run %d, skipped %d: want skips >= 2x runs on a dense workload", ran, skipped)
	}
}

// TestShardedIncrementalBitExact: sharded execution must be invariant to both
// the worker count and the incremental/full-replan toggle, and identical to
// the serial runner.
func TestShardedIncrementalBitExact(t *testing.T) {
	tr := trace.Generator{Ports: 16, Coflows: 80, HorizonSec: 30, MaxWidth: 4, Seed: 3}.Trace()
	opts := CircuitOptions{Ports: tr.Ports, LinkBps: gbps, Delta: 0.01}
	base, err := RunCircuit(tr.Coflows, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		for _, fullReplan := range []bool{false, true} {
			setFullReplan(t, fullReplan)
			res, err := RunCircuitSharded(tr.Coflows, opts, workers)
			if err != nil {
				t.Fatalf("workers=%d full=%v: %v", workers, fullReplan, err)
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("workers=%d full=%v: sharded result diverges from serial", workers, fullReplan)
			}
		}
	}
}
