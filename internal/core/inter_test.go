package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sunflow/internal/coflow"
)

func TestShortestFirstOrdering(t *testing.T) {
	small := coflow.New(1, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	big := coflow.New(2, 0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 100e6}})
	got := ShortestFirst{LinkBps: gbps}.Sort([]*coflow.Coflow{big, small})
	if got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("SCF order = [%d %d]", got[0].ID, got[1].ID)
	}
	// Input slice untouched.
	if big.ID != 2 {
		t.Fatal("Sort mutated input")
	}
}

func TestFIFOOrdering(t *testing.T) {
	a := coflow.New(1, 5, nil)
	b := coflow.New(2, 3, nil)
	got := FIFO{}.Sort([]*coflow.Coflow{a, b})
	if got[0].ID != 2 {
		t.Fatalf("FIFO order wrong: %d first", got[0].ID)
	}
}

// TestKeyPoliciesMatchStableSort holds the KeyPolicy sorts to the stable
// comparison sorts they replaced — ShortestFirst by (TpL, Arrival, ID), FIFO
// by (Arrival, ID) — on workloads with tied sizes, tied arrivals and ids out
// of arrival order.
func TestKeyPoliciesMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var cs []*coflow.Coflow
		for _, id := range rng.Perm(1 + rng.Intn(30)) {
			var flows []coflow.Flow
			for n := rng.Intn(4); n > 0; n-- {
				flows = append(flows, coflow.Flow{Src: rng.Intn(4), Dst: rng.Intn(4), Bytes: float64(rng.Intn(3)) * 1e6})
			}
			cs = append(cs, coflow.New(id, float64(rng.Intn(4)), flows))
		}
		sf := ShortestFirst{LinkBps: gbps}
		want := append([]*coflow.Coflow(nil), cs...)
		sort.SliceStable(want, func(a, b int) bool {
			ka, kb := want[a].PacketLowerBound(gbps), want[b].PacketLowerBound(gbps)
			if ka != kb {
				return ka < kb
			}
			if want[a].Arrival != want[b].Arrival {
				return want[a].Arrival < want[b].Arrival
			}
			return want[a].ID < want[b].ID
		})
		fifo := append([]*coflow.Coflow(nil), cs...)
		sort.SliceStable(fifo, func(a, b int) bool {
			if fifo[a].Arrival != fifo[b].Arrival {
				return fifo[a].Arrival < fifo[b].Arrival
			}
			return fifo[a].ID < fifo[b].ID
		})
		for name, c := range map[string][2][]*coflow.Coflow{
			"shortest-first": {sf.Sort(cs), want},
			"fifo":           {FIFO{}.Sort(cs), fifo},
		} {
			for i := range c[1] {
				if c[0][i] != c[1][i] {
					t.Fatalf("trial %d %s: position %d holds coflow %d, stable sort gives %d", trial, name, i, c[0][i].ID, c[1][i].ID)
				}
			}
		}
	}
}

func TestPriorityClasses(t *testing.T) {
	a := coflow.New(1, 0, nil)
	b := coflow.New(2, 1, nil)
	c := coflow.New(3, 2, nil)
	p := PriorityClasses{Class: map[int]int{3: 0, 1: 5}, DefaultClass: 2}
	got := p.Sort([]*coflow.Coflow{a, b, c})
	if got[0].ID != 3 || got[1].ID != 2 || got[2].ID != 1 {
		t.Fatalf("priority order = [%d %d %d]", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestInterHighPriorityUnblocked(t *testing.T) {
	// The first Coflow in the order must finish exactly as if it were
	// alone: Sunflow never lets lower priority Coflows block it.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		c1 := randomCoflow(rng, 6, 10)
		c1.ID = 1
		c2 := randomCoflow(rng, 6, 10)
		c2.ID = 2

		solo := mustIntra(t, c1, 6, testOpts)

		prt := NewPRT(6)
		scheds, err := InterCoflow(prt, []*coflow.Coflow{c1, c2}, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(Seconds(scheds[0].Finish-solo.Finish)) > 1e-9 {
			t.Fatalf("high priority coflow delayed: inter %v vs solo %v", scheds[0].Finish, solo.Finish)
		}
	}
}

func TestInterLowPriorityShortenedReservation(t *testing.T) {
	// Figure 2: C2's reservation on a port C1 needs later is shortened so
	// as not to block C1.
	// C1: flows (0,0) then (1,0) — the second must wait for out.0, giving
	// in.1 a future commitment.
	c1 := coflow.New(1, 0, []coflow.Flow{
		{Src: 0, Dst: 0, Bytes: 5e6},
		{Src: 1, Dst: 0, Bytes: 5e6},
	})
	// C2 wants a long transfer on in.1 → out.1, overlapping C1's future
	// reservation on in.1.
	c2 := coflow.New(2, 0, []coflow.Flow{{Src: 1, Dst: 1, Bytes: 50e6}})

	prt := NewPRT(2)
	scheds, err := InterCoflow(prt, []*coflow.Coflow{c1, c2}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(scheds[1].Reservations) < 2 {
		t.Fatalf("C2 should be split around C1's reservation, got %+v", scheds[1].Reservations)
	}
	// C1's second flow must start exactly at its release time (0.01+0.04).
	c1res := scheds[0].Reservations
	if math.Abs(Seconds(c1res[1].Start)-0.05) > 1e-9 {
		t.Fatalf("C1 second reservation start = %v, want 0.05", c1res[1].Start)
	}
	// C2's first slice must end before C1 needs in.1.
	if Seconds(scheds[1].Reservations[0].End) > Seconds(c1res[1].Start)+1e-9 {
		t.Fatalf("C2 blocks C1: %v > %v", scheds[1].Reservations[0].End, c1res[1].Start)
	}
}

func TestInterRespectsArrivalTimes(t *testing.T) {
	c1 := coflow.New(1, 1.0, []coflow.Flow{{Src: 0, Dst: 0, Bytes: 1e6}})
	prt := NewPRT(1)
	scheds, err := InterCoflow(prt, []*coflow.Coflow{c1}, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if Seconds(scheds[0].Reservations[0].Start) < 1.0 {
		t.Fatalf("scheduled before arrival: %v", scheds[0].Reservations[0].Start)
	}
	if got := scheds[0].CCT(ns(c1.Arrival)); math.Abs(got-0.018) > 1e-9 {
		t.Fatalf("CCT = %v, want 0.018", got)
	}
}

func TestInterTotalServiceConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		var cs []*coflow.Coflow
		var total int64
		for id := 0; id < 5; id++ {
			c := randomCoflow(rng, 5, 8)
			c.ID = id
			cs = append(cs, c)
			for _, f := range c.Flows {
				total += int64(math.Round(f.Bytes))
			}
		}
		prt := NewPRT(5)
		scheds, err := InterCoflow(prt, ShortestFirst{LinkBps: gbps}.Sort(cs), testOpts)
		if err != nil {
			t.Fatal(err)
		}
		// Every flow's whole bytes are labelled exactly once.
		var served int64
		for _, s := range scheds {
			for _, r := range s.Reservations {
				served += r.Bytes
			}
		}
		if served != total {
			t.Fatalf("served %v of %v", served, total)
		}
	}
}
