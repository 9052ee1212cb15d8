package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/varys"
)

// randomWorkload builds a workload of random Coflows with random arrivals.
func randomWorkload(rng *rand.Rand, n, ports, maxFlows int, horizon float64) []*coflow.Coflow {
	var cs []*coflow.Coflow
	for id := 0; id < n; id++ {
		c := randomCoflow(rng, ports, maxFlows)
		c.ID = id
		c.Arrival = rng.Float64() * horizon
		cs = append(cs, c)
	}
	return cs
}

func TestQuickCircuitWithinHalfOfSoloSchedule(t *testing.T) {
	// Property: an online CCT can occasionally beat the greedy solo
	// schedule (shortened reservations reshuffle a Coflow's internal order
	// — a classic scheduling anomaly), but never by more than 2×: solo is
	// within 2·TcL by Lemma 1 and the online CCT is at least TcL.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 6, 5, 6, 2)
		res, err := RunCircuit(cs, CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01})
		if err != nil {
			return false
		}
		for _, c := range cs {
			solo, err := core.IntraCoflow(core.NewPRT(5), c, core.Options{LinkBps: gbps, Delta: ns(0.01)})
			if err != nil {
				return false
			}
			if res.CCT[c.ID] < solo.CCT(0)/2-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCircuitRespectsLowerBounds(t *testing.T) {
	// Property: no Coflow ever beats its circuit-switched lower bound.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 8, 6, 8, 3)
		res, err := RunCircuit(cs, CircuitOptions{Ports: 6, LinkBps: gbps, Delta: 0.01})
		if err != nil {
			return false
		}
		if len(res.CCT) != len(cs) {
			return false
		}
		for _, c := range cs {
			if res.CCT[c.ID] < c.CircuitLowerBound(gbps, 0.01)-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPacketRespectsLowerBounds(t *testing.T) {
	// Property: Varys and fair sharing never beat TpL, and everything
	// finishes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 8, 6, 8, 3)
		for _, alloc := range []fabric.RateAllocator{varys.Allocator{}, fabric.FairSharing{}} {
			res, err := RunPacket(cs, 6, gbps, alloc)
			if err != nil || len(res.CCT) != len(cs) {
				return false
			}
			for _, c := range cs {
				if res.CCT[c.ID] < c.PacketLowerBound(gbps)-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCircuitDeterminism(t *testing.T) {
	// Property: two runs of the same workload agree exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomWorkload(rng, 6, 5, 6, 2)
		a, err := RunCircuit(cs, CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01})
		if err != nil {
			return false
		}
		b, err := RunCircuit(cs, CircuitOptions{Ports: 5, LinkBps: gbps, Delta: 0.01})
		if err != nil {
			return false
		}
		for id, v := range a.CCT {
			if b.CCT[id] != v || a.SwitchCount[id] != b.SwitchCount[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitFIFOOrderUnderFIFOPolicy(t *testing.T) {
	// Under FIFO, two same-shape Coflows on the same ports complete in
	// arrival order.
	a := coflow.New(1, 0.0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 10e6}})
	b := coflow.New(2, 0.001, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 10e6}})
	res, err := RunCircuit([]*coflow.Coflow{b, a}, CircuitOptions{
		Ports: 1, LinkBps: gbps, Delta: 0.01, Policy: core.FIFO{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish[1] >= res.Finish[2] {
		t.Fatalf("FIFO violated: first arrival finished at %v, second at %v", res.Finish[1], res.Finish[2])
	}
}

func TestPacketFrozenRatesWasteBandwidth(t *testing.T) {
	// The §5.4 Varys inefficiency: one Coflow with a short and a long flow
	// on different ports. MADD finishes them together, so freezing changes
	// nothing for a lone Coflow; but with backfill giving the short flow
	// extra rate, it finishes early and its bandwidth idles until the
	// Coflow completes. Verify the long flow's finish defines the CCT and
	// no rate is reassigned mid-Coflow (CCT equals the MADD bottleneck).
	c := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 0, Bytes: 10e6},
		{Src: 1, Dst: 1, Bytes: 80e6},
	})
	res, err := RunPacket([]*coflow.Coflow{c}, 2, gbps, varys.Allocator{})
	if err != nil {
		t.Fatal(err)
	}
	// Both flows ride separate ports: backfill gives both full rate; CCT is
	// the long flow's 0.64 s.
	if math.Abs(res.CCT[1]-0.64) > 1e-6 {
		t.Fatalf("CCT = %v, want 0.64", res.CCT[1])
	}
}

func TestCircuitLockedReservationServesExactBytes(t *testing.T) {
	// A replan mid-flight must neither lose nor duplicate bytes: total
	// switching equals the minimal establishments when no shortening is
	// needed, and the Coflow still finishes exactly on its solo schedule.
	long := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 100e6}})
	// Arrivals that trigger replans but use disjoint ports.
	noise1 := coflow.New(2, 0.1, []coflow.Flow{{Src: 1, Dst: 1, Bytes: 1e6}})
	noise2 := coflow.New(3, 0.3, []coflow.Flow{{Src: 2, Dst: 2, Bytes: 1e6}})
	res, err := RunCircuit([]*coflow.Coflow{long, noise1, noise2}, circOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.CCT[1]-0.81) > 1e-6 {
		t.Fatalf("long CCT = %v, want 0.81 (replans disturbed a locked circuit)", res.CCT[1])
	}
	if res.SwitchCount[1] != 1 {
		t.Fatalf("long coflow switches = %d, want 1", res.SwitchCount[1])
	}
}
