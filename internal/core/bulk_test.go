package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bulkLoad runs the two-phase bulk API over one reservation set.
func bulkLoad(p *PRT, rs []Reservation) error {
	p.BulkAdd(rs)
	return p.FinishBulk()
}

// randomDisjointPlan builds a conflict-free reservation set by scheduling a
// random Coflow-like demand through IntraCoflow — the same way the replanner
// produces the sets it bulk-loads.
func randomDisjointPlan(t *testing.T, rng *rand.Rand, ports int) []Reservation {
	t.Helper()
	prt := NewPRT(ports)
	var out []Reservation
	for c := 0; c < 3; c++ {
		cf := randomCoflow(rng, ports, 6)
		cf.ID = c
		s, err := IntraCoflow(prt, cf, Options{LinkBps: 1e9, Delta: ns(0.01)})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s.Reservations...)
	}
	return out
}

// TestQuickBulkLoadEquivalentToPreload: a table seeded through
// BulkAdd/FinishBulk must answer every query exactly like one seeded through
// Preload — same FreeAt, NextCommitment and Len — whether the input arrives
// sorted or shuffled. The trials draw, and the test fails if any goes
// undrawn:
//   - a sparse load on 64–127 ports, which leaves most timelines untouched
//     and spans several words of the touched-timeline bitset;
//   - a double-booking: one extra reservation overlapping a planned one on
//     its input port, which FinishBulk must reject with ErrDoubleBooked
//     before a Reset and a clean reload.
func TestQuickBulkLoadEquivalentToPreload(t *testing.T) {
	var sparse, doubleBooked int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 3 + rng.Intn(4)
		if rng.Intn(3) == 0 {
			ports = 64 + rng.Intn(64)
		}
		rs := randomDisjointPlan(t, rng, ports)
		touched := map[[2]int]bool{}
		for _, r := range rs {
			touched[[2]int{0, r.In}], touched[[2]int{1, r.Out}] = true, true
		}
		if len(touched) < ports {
			sparse++
		}

		ref := NewPRT(ports)
		ref.Preload(rs)

		shuffled := append([]Reservation(nil), rs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		bulk := NewPRT(ports)
		if rng.Intn(4) == 0 {
			r := rs[rng.Intn(len(rs))]
			mid := r.Start + (r.End-r.Start)/2
			clash := Reservation{CoflowID: -1, In: r.In, Out: rng.Intn(ports), Start: mid, End: mid + ns(0.5)}
			if err := bulkLoad(bulk, append(shuffled[:len(shuffled):len(shuffled)], clash)); !errors.Is(err, ErrDoubleBooked) {
				t.Logf("seed %d: double-booked bulk load returned %v, want ErrDoubleBooked", seed, err)
				return false
			}
			doubleBooked++
			bulk.Reset()
		}
		if err := bulkLoad(bulk, shuffled); err != nil {
			t.Logf("seed %d: bulk load of a conflict-free plan failed: %v", seed, err)
			return false
		}

		if bulk.Len() != ref.Len() {
			return false
		}
		for probe := 0; probe < 50; probe++ {
			i, j := rng.Intn(ports), rng.Intn(ports)
			at := ns(rng.Float64() * 2)
			if bulk.FreeAt(i, j, at) != ref.FreeAt(i, j, at) {
				t.Logf("seed %d: FreeAt(%d,%d,%v) diverges", seed, i, j, at)
				return false
			}
			if bulk.NextCommitment(i, j, at) != ref.NextCommitment(i, j, at) {
				t.Logf("seed %d: NextCommitment(%d,%d,%v) diverges", seed, i, j, at)
				return false
			}
		}
		// The bulk-loaded table must accept exactly the follow-on schedule
		// the preloaded one accepts.
		cf := randomCoflow(rng, ports, 5)
		cf.ID = 99
		sb, errB := IntraCoflow(bulk, cf, Options{LinkBps: 1e9, Delta: ns(0.01)})
		sr, errR := IntraCoflow(ref, cf, Options{LinkBps: 1e9, Delta: ns(0.01)})
		if (errB == nil) != (errR == nil) {
			return false
		}
		if errB == nil && len(sb.Reservations) != len(sr.Reservations) {
			return false
		}
		if errB == nil {
			for k := range sb.Reservations {
				if sb.Reservations[k] != sr.Reservations[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if sparse == 0 {
		t.Error("no trial drew a load leaving most timelines untouched")
	}
	if doubleBooked == 0 {
		t.Error("no trial drew a double-booked load")
	}
}

func TestBulkAddSplitAcrossCalls(t *testing.T) {
	rs := []Reservation{
		{CoflowID: 1, In: 0, Out: 1, Start: 0, End: ns(1), Setup: ns(0.01), Bytes: 1e6},
		{CoflowID: 2, In: 0, Out: 1, Start: ns(1), End: ns(2), Setup: ns(0.01), Bytes: 1e6},
		{CoflowID: 3, In: 1, Out: 0, Start: ns(0.5), End: ns(1.5), Setup: ns(0.01), Bytes: 1e6},
	}
	p := NewPRT(2)
	p.BulkAdd(rs[:1])
	p.BulkAdd(rs[1:])
	if err := p.FinishBulk(); err != nil {
		t.Fatalf("FinishBulk: %v", err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	if p.FreeAt(0, 1, ns(0.5)) {
		t.Fatal("port pair reported free inside a bulk-loaded reservation")
	}
}

func TestFinishBulkRejectsOverlap(t *testing.T) {
	p := NewPRT(2)
	p.BulkAdd([]Reservation{
		{CoflowID: 1, In: 0, Out: 1, Start: 0, End: ns(1)},
		{CoflowID: 2, In: 0, Out: 1, Start: ns(0.5), End: ns(1.5)},
	})
	if err := p.FinishBulk(); !errors.Is(err, ErrDoubleBooked) {
		t.Fatalf("overlapping bulk load: got %v, want ErrDoubleBooked", err)
	}
}

func TestFinishBulkRejectsEmptyReservation(t *testing.T) {
	p := NewPRT(2)
	p.BulkAdd([]Reservation{{CoflowID: 1, In: 0, Out: 1, Start: 1, End: 1}})
	if err := p.FinishBulk(); !errors.Is(err, ErrEmptyReservation) {
		t.Fatalf("empty bulk reservation: got %v, want ErrEmptyReservation", err)
	}
}

func TestFinishBulkRejectsCompactedTimeline(t *testing.T) {
	p := NewPRT(2)
	p.Preload([]Reservation{{CoflowID: 1, In: 0, Out: 1, Start: 0, End: 1}})
	p.CompactBefore(2)
	if old, _ := p.Compacted(); old == 0 {
		t.Fatal("CompactBefore archived nothing; test premise broken")
	}
	p.BulkAdd([]Reservation{{CoflowID: 2, In: 0, Out: 1, Start: 3, End: 4}})
	if err := p.FinishBulk(); err == nil {
		t.Fatal("bulk load on a compacted timeline must error")
	}
	// Reset restores the table for normal use, as the fallback contract
	// requires.
	p.Reset()
	if err := bulkLoad(p, []Reservation{{CoflowID: 2, In: 0, Out: 1, Start: 3, End: 4}}); err != nil {
		t.Fatalf("bulk load after Reset: %v", err)
	}
	if p.Len() != 1 {
		t.Fatalf("Len after reset+bulk = %d, want 1", p.Len())
	}
}

func TestFinishBulkAcceptsAbutment(t *testing.T) {
	// Insert accepts a reservation starting at the tick its neighbour ends;
	// FinishBulk must too, or valid cached schedules would spuriously fail
	// to reload. One tick more overlaps.
	p := NewPRT(2)
	if err := bulkLoad(p, []Reservation{
		{CoflowID: 1, In: 0, Out: 1, Start: 0, End: 1},
		{CoflowID: 2, In: 0, Out: 1, Start: 1, End: 2},
	}); err != nil {
		t.Fatalf("abutting bulk load: %v", err)
	}
	if p.NextCommitment(0, 1, math.MinInt64) != 0 {
		t.Fatal("NextCommitment lost the first bulk interval")
	}
	p.Reset()
	if err := bulkLoad(p, []Reservation{
		{CoflowID: 1, In: 0, Out: 1, Start: 0, End: 2},
		{CoflowID: 2, In: 0, Out: 1, Start: 1, End: 3},
	}); !errors.Is(err, ErrDoubleBooked) {
		t.Fatalf("one-tick overlap: got %v, want ErrDoubleBooked", err)
	}
}
