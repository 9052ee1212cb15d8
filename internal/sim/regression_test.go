package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fault"
)

// TestIncrementalDivergenceRegressionSeeds replays seeds that historically
// broke incremental/full bit-identity while the reuse certification was being
// developed, through the same differential check the quick property runs.
// quick.Check draws fresh seeds every run, so without pinning these would
// only be revisited by chance.
func TestIncrementalDivergenceRegressionSeeds(t *testing.T) {
	for _, seed := range []int64{-8752627050616001871, -2238236420052738943} {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 14, 5, 6, 1.0)
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01}
		setFullReplan(t, false)
		got, gotEv, _ := observedCircuit(t, cs, opts)
		setFullReplan(t, true)
		want, wantEv, _ := observedCircuit(t, cs, opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: results diverge between incremental and full replan", seed)
		}
		if !sameEvents(gotEv, wantEv) {
			t.Errorf("seed %d: trace streams diverge", seed)
		}
	}
}

// TestFaultPathLivenessRegression pins a workload that once wedged the event
// loop at a fixed instant: under a degraded link, a second copy of the
// remainder the scheduler read slipped a fraction of a byte below the one
// retire read, so retire saw unserved demand while the scheduler saw none and
// the run spun until the event guard tripped. The engine now keeps one
// whole-byte remainder; this seed guards against the class returning.
func TestFaultPathLivenessRegression(t *testing.T) {
	seed := int64(7126918789108884147)
	rng := rand.New(rand.NewSource(seed))
	cs := randomWorkload(rng, 6, 5, 6, 2)
	plan := &fault.Plan{
		Seed:          seed,
		SetupFailProb: 0.3,
		TransientRate: 0.1, MeanOutage: 0.2, Horizon: 10,
		DegradedLinkProb: 0.2,
		StragglerProb:    0.2,
	}
	res, err := RunCircuit(cs, CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events > 100000 {
		t.Fatalf("run took %d events; the fault path is looping without progress", res.Events)
	}
}

// TestFullRateFaultLiveness covers fault plans that keep every circuit at the
// link rate: transient and permanent outages and setup failures, with no
// degraded links and no stragglers. Across seeds, every run must finish
// without ErrStalled, account for every Coflow as completed or partially
// served, and stay bit-identical to a full rebuild.
func TestFullRateFaultLiveness(t *testing.T) {
	stranding := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 14, 5, 6, 2)
		plan := &fault.Plan{
			Seed:          seed,
			SetupFailProb: 0.3, MaxRetries: 2,
			TransientRate: 0.1, MeanOutage: 0.2, Horizon: 10,
		}
		if seed%2 == 0 {
			plan.PortFailures = []fault.PortFailure{{Port: int(seed/2) % 5, At: 0.5}}
		}
		opts := CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01, Faults: plan}
		var results [2]Result
		for i, full := range []bool{false, true} {
			setFullReplan(t, full)
			res, err := RunCircuit(cs, opts)
			if err != nil {
				t.Fatalf("seed %d (full replan %v): %v", seed, full, err)
			}
			if res.Events > 100000 {
				t.Fatalf("seed %d: run took %d events; the fault path is looping without progress", seed, res.Events)
			}
			for _, c := range cs {
				_, done := res.CCT[c.ID]
				partial := false
				if res.Partial != nil {
					_, partial = res.Partial.Finish[c.ID]
				}
				if done == partial {
					t.Errorf("seed %d: coflow %d completed=%v partially served=%v", seed, c.ID, done, partial)
				}
			}
			results[i] = res
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("seed %d: results diverge between incremental and full replan", seed)
		}
		if results[0].Partial.Degraded() {
			stranding++
		}
	}
	if stranding == 0 {
		t.Error("no seed strands a flow; the permanent outages are not exercised")
	}
}

// TestFairWindowsPermanentFailureLiveness pins a workload that once hung
// RunCircuit: with fair windows on, port 3 dies for good while Coflow 1
// still has a flow on it. Both intra planners used to wait for the next
// blackout end forever, since fair windows never run out of them; they now
// report ErrStalled when a round at a blackout end places nothing with no
// circuit release pending, and the engine strands the doomed flow.
func TestFairWindowsPermanentFailureLiveness(t *testing.T) {
	cs := []*coflow.Coflow{
		coflow.New(1, 0, []coflow.Flow{{Src: 3, Dst: 0, Bytes: 6.82e6}, {Src: 6, Dst: 0, Bytes: 10.3e6}}),
		coflow.New(2, 0, []coflow.Flow{{Src: 0, Dst: 5, Bytes: 2.26e6}, {Src: 0, Dst: 2, Bytes: 15.4e6}}),
	}
	for _, full := range []bool{false, true} {
		setFullReplan(t, full)
		res, err := RunCircuit(cs, CircuitOptions{
			Ports: 7, LinkBps: gbps, Delta: 0.0106,
			Fair:   &core.FairWindows{N: 7, T: ns(1.217), Tau: ns(0.05)},
			Faults: &fault.Plan{PortFailures: []fault.PortFailure{{Port: 3, At: 0.0627}}},
		})
		if err != nil {
			t.Fatalf("full replan %v: %v", full, err)
		}
		p := res.Partial
		if !p.Degraded() || len(p.Stranded) != 1 {
			t.Fatalf("full replan %v: stranded %+v, want coflow 1's flow 3->0 alone", full, p)
		}
		if s := p.Stranded[0]; s.Coflow != 1 || s.Src != 3 || s.Dst != 0 {
			t.Errorf("full replan %v: stranded %+v, want coflow 1's flow 3->0", full, s)
		}
		if _, ok := res.CCT[2]; !ok {
			t.Errorf("full replan %v: coflow 2 did not complete", full)
		}
	}
}
