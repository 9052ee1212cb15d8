package sim

import (
	"math"
	"math/rand"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
)

var circOpts = CircuitOptions{Ports: 6, LinkBps: gbps, Delta: 0.01}

func TestCircuitSingleCoflow(t *testing.T) {
	c := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 1, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{c}, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CCT[1]-0.018) > 1e-6 {
		t.Fatalf("CCT = %v, want 0.018", res.CCT[1])
	}
	if res.SwitchCount[1] != 1 {
		t.Fatalf("SwitchCount = %d, want 1", res.SwitchCount[1])
	}
}

func TestCircuitMatchesIntraScheduleWhenAlone(t *testing.T) {
	// With one Coflow in the system, the online simulation reproduces the
	// offline IntraCoflow schedule exactly.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		c := randomCoflow(rng, 6, 12)
		c.ID = 1
		prt := core.NewPRT(6)
		sched, err := core.IntraCoflow(prt, c, core.Options{LinkBps: gbps, Delta: ns(0.01)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCircuit([]*coflow.Coflow{c}, circOpts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.CCT[1]-sched.CCT(0)) > 1e-6 {
			t.Fatalf("online CCT %v != offline %v", res.CCT[1], sched.Finish)
		}
		if res.SwitchCount[1] != sched.SwitchingCount() {
			t.Fatalf("online switches %d != offline %d", res.SwitchCount[1], sched.SwitchingCount())
		}
	}
}

func TestCircuitSequentialCoflows(t *testing.T) {
	// Non-overlapping Coflows each get their solo CCT.
	c1 := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	c2 := coflow.New(2, 5, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{c1, c2}, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CCT[1]-0.018) > 1e-6 || math.Abs(res.CCT[2]-0.018) > 1e-6 {
		t.Fatalf("CCTs = %v", res.CCT)
	}
}

func TestCircuitShortCoflowPriority(t *testing.T) {
	// SCF: a short Coflow arriving while a long one transmits on another
	// port pair is not delayed.
	long := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 500e6}})
	short := coflow.New(2, 0.1, []coflow.Flow{{Src: 1, Dst: 1, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{long, short}, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CCT[2]-0.018) > 1e-6 {
		t.Fatalf("disjoint short CCT = %v, want 0.018", res.CCT[2])
	}
}

func TestCircuitNonPreemption(t *testing.T) {
	// A circuit in flight is never torn down: a short Coflow arriving for
	// the same ports must wait for the long transfer to finish.
	long := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 100e6}}) // busy until 0.81
	short := coflow.New(2, 0.1, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{long, short}, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CCT[1]-0.81) > 1e-6 {
		t.Fatalf("long CCT = %v, want 0.81 (preempted?)", res.CCT[1])
	}
	// Short waits until 0.81, then δ+0.008.
	if want := 0.81 - 0.1 + 0.018; math.Abs(res.CCT[2]-want) > 1e-6 {
		t.Fatalf("short CCT = %v, want %v", res.CCT[2], want)
	}
}

func TestCircuitPriorityInversionOnFuture(t *testing.T) {
	// A short Coflow arrives while a long one is transmitting on its port:
	// the long Coflow's *future* reservations must yield (they are
	// replanned), but the in-flight circuit is kept.
	long := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 0, Bytes: 100e6},
		{Src: 0, Dst: 1, Bytes: 100e6},
	})
	short := coflow.New(2, 0.1, []coflow.Flow{{Src: 0, Dst: 2, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{long, short}, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	// in.0 serves (0,0) until 0.81 (locked), then the short Coflow (higher
	// priority under SCF) gets in.0 before the long one's second flow.
	if want := 0.81 + 0.018 - 0.1; math.Abs(res.CCT[2]-want) > 1e-6 {
		t.Fatalf("short CCT = %v, want %v", res.CCT[2], want)
	}
	if want := 0.81 + 0.018 + 0.81; math.Abs(res.CCT[1]-want) > 1e-6 {
		t.Fatalf("long CCT = %v, want %v", res.CCT[1], want)
	}
}

func TestCircuitAllCoflowsFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var cs []*coflow.Coflow
	for id := 0; id < 30; id++ {
		c := randomCoflow(rng, 6, 10)
		c.ID = id
		c.Arrival = rng.Float64() * 3
		cs = append(cs, c)
	}
	res, err := RunCircuit(cs, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CCT) != len(cs) {
		t.Fatalf("%d of %d coflows finished", len(res.CCT), len(cs))
	}
	for _, c := range cs {
		// No Coflow beats its circuit lower bound.
		if res.CCT[c.ID] < c.CircuitLowerBound(gbps, 0.01)-1e-6 {
			t.Fatalf("coflow %d CCT %v below TcL %v", c.ID, res.CCT[c.ID], c.CircuitLowerBound(gbps, 0.01))
		}
	}
}

func TestCircuitSwitchCountAtLeastFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var cs []*coflow.Coflow
	for id := 0; id < 10; id++ {
		c := randomCoflow(rng, 6, 8)
		c.ID = id
		c.Arrival = rng.Float64()
		cs = append(cs, c)
	}
	res, err := RunCircuit(cs, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if res.SwitchCount[c.ID] < c.NumFlows() {
			t.Fatalf("coflow %d: %d switches for %d flows", c.ID, res.SwitchCount[c.ID], c.NumFlows())
		}
	}
}

func TestCircuitWithFairWindows(t *testing.T) {
	// Starvation avoidance: a permanently deprioritized Coflow still makes
	// progress through the fair windows.
	fair := &core.FairWindows{N: 3, T: ns(0.5), Tau: ns(0.05)}
	opts := CircuitOptions{Ports: 3, LinkBps: gbps, Delta: 0.01, Fair: fair,
		// Keep the big Coflow always first: a policy that starves by id.
		Policy: core.PriorityClasses{Class: map[int]int{1: 0, 2: 1}},
	}
	// Coflow 1 hogs port pair (0,0) effectively forever relative to the
	// horizon; Coflow 2 wants the same pair.
	hog := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1000e6}})
	starved := coflow.New(2, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{hog, starved}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CCT) != 2 {
		t.Fatalf("only %d coflows finished", len(res.CCT))
	}
	// Without fair windows the starved Coflow would wait the full 8+ s
	// transfer; with them it finishes within a few N·(T+τ) rounds.
	noFair, err := RunCircuit([]*coflow.Coflow{hog, starved},
		CircuitOptions{Ports: 3, LinkBps: gbps, Delta: 0.01,
			Policy: core.PriorityClasses{Class: map[int]int{1: 0, 2: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.CCT[2] >= noFair.CCT[2] {
		t.Fatalf("fair windows did not help: %v vs %v", res.CCT[2], noFair.CCT[2])
	}
	if res.CCT[2] > 4*3*(0.5+0.05) {
		t.Fatalf("starved coflow took %v, want service within a few N(T+τ) rounds", res.CCT[2])
	}
}

func TestCircuitValidates(t *testing.T) {
	if _, err := RunCircuit(nil, CircuitOptions{Ports: 1, LinkBps: 0}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad := &core.FairWindows{N: 2, T: ns(0.001), Tau: ns(0.1)}
	if _, err := RunCircuit(nil, CircuitOptions{Ports: 2, LinkBps: gbps, Delta: 0.01, Fair: bad}); err == nil {
		t.Fatal("invalid fair windows accepted")
	}
}

func TestCircuitEmptyWorkload(t *testing.T) {
	res, err := RunCircuit(nil, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CCT) != 0 {
		t.Fatalf("CCT = %v", res.CCT)
	}
}
