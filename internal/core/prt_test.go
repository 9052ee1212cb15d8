package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimelineInsertAndQueries(t *testing.T) {
	var tl timeline
	if !tl.insert(10, 20, 0) || !tl.insert(30, 40, 0) || !tl.insert(20, 30, 0) {
		t.Fatal("non-overlapping inserts rejected")
	}
	if tl.insert(35, 50, 0) {
		t.Fatal("overlapping insert accepted")
	}
	if tl.insert(5, 15, 0) || tl.insert(39, 41, 0) {
		t.Fatal("overlapping insert accepted")
	}
	if !tl.freeAt(5) || tl.freeAt(15) || tl.freeAt(30) || tl.freeAt(39) {
		t.Fatal("freeAt wrong")
	}
	// End of an interval is free (half-open).
	if !tl.freeAt(40) {
		t.Fatal("freeAt(end) should be free")
	}
	if got := tl.nextStart(0); got != 10 {
		t.Fatalf("nextStart(0) = %v", got)
	}
	if got := tl.nextStart(10); got != 20 {
		t.Fatalf("nextStart(10) = %v", got)
	}
	if got := tl.nextStart(40); got != Forever {
		t.Fatalf("nextStart(40) = %v", got)
	}
	ends := tl.endsAfter(25, nil)
	if len(ends) != 2 || ends[0] != 30 || ends[1] != 40 {
		t.Fatalf("endsAfter = %v", ends)
	}
}

func TestPRTReserveAndPortConstraint(t *testing.T) {
	p := NewPRT(3)
	r := Reservation{CoflowID: 1, In: 0, Out: 1, Start: 0, End: 10, Setup: 1, Bytes: 100}
	p.Reserve(r)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.FreeAt(0, 2, 5) {
		t.Fatal("input port 0 should be busy")
	}
	if p.FreeAt(2, 1, 5) {
		t.Fatal("output port 1 should be busy")
	}
	if !p.FreeAt(2, 2, 5) {
		t.Fatal("unrelated ports should be free")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double-booking must panic")
		}
	}()
	p.Reserve(Reservation{CoflowID: 2, In: 0, Out: 2, Start: 5, End: 7})
}

func TestPRTNextCommitment(t *testing.T) {
	p := NewPRT(2)
	p.Reserve(Reservation{In: 0, Out: 0, Start: 5, End: 6})
	p.Reserve(Reservation{In: 1, Out: 1, Start: 3, End: 4})
	// tm is the earliest next reservation on either port: in.0 commits at 5,
	// out.1 at 3.
	if got := p.NextCommitment(0, 1, 0); got != 3 {
		t.Fatalf("NextCommitment(0,1) = %v, want 3", got)
	}
	if got := p.NextCommitment(0, 0, 0); got != 5 {
		t.Fatalf("NextCommitment(0,0) = %v, want 5", got)
	}
	if got := p.NextCommitment(1, 0, 0); got != 3 {
		t.Fatalf("NextCommitment(1,0) = %v, want 3", got)
	}
	if got := p.NextCommitment(0, 1, 6); got != Forever {
		t.Fatalf("NextCommitment past all = %v", got)
	}
}

func TestReservationDelivered(t *testing.T) {
	const bps = 1e9
	r := Reservation{Start: ns(1), End: ns(1 + 0.01 + 0.008), Setup: ns(0.01), Bytes: 1e6}
	if got := r.Delivered(ns(1.005), bps); got != 0 {
		t.Fatalf("during setup: %v", got)
	}
	if got := r.Delivered(ns(1.014), bps); got != 0.5e6 {
		t.Fatalf("halfway: %v", got)
	}
	if got := r.Delivered(r.End-1, bps); got != r.Bytes-1 {
		t.Fatalf("one tick before the end: %v, want Bytes-1", got)
	}
	if got := r.Delivered(ns(10), bps); got != 1e6 {
		t.Fatalf("after end: %v", got)
	}
}

func TestPRTReleasesAfter(t *testing.T) {
	p := NewPRT(3)
	p.Reserve(Reservation{In: 0, Out: 1, Start: 0, End: 2})
	p.Reserve(Reservation{In: 1, Out: 2, Start: 1, End: 3})
	got := p.ReleasesAfter(0, []int{0, 1}, []int{1, 2}, nil)
	// in.0 end 2, in.1 end 3, out.1 end 2, out.2 end 3 — duplicates fine.
	if len(got) != 4 {
		t.Fatalf("ReleasesAfter = %v", got)
	}
}

// TestPRTContainsSpans pins the plan cache's context containment check: a
// snapshot is contained while every span still visible at t is on the table
// with the same Start and End, whatever else the table gained, and spans that
// ended by t no longer count.
func TestPRTContainsSpans(t *testing.T) {
	p := NewPRT(3)
	p.Reserve(Reservation{In: 0, Out: 1, Start: 10, End: 20})
	p.Reserve(Reservation{In: 0, Out: 2, Start: 30, End: 40})
	p.Reserve(Reservation{In: 2, Out: 1, Start: 50, End: 60})
	snap := p.SpansOn(0, Forever, []int{0, 2}, []int{1, 2}, nil)
	if len(snap) != 6 || !p.ContainsSpans(snap, 0) {
		t.Fatalf("a table must contain its own snapshot %v", snap)
	}
	for _, c := range []struct {
		name  string
		spans []PortSpan
		t     int64
		want  bool
	}{
		{"missing span", []PortSpan{{Start: 10, End: 20, Port: 0}, {Start: 70, End: 80, Port: 0}}, 0, false},
		{"span on the other side", []PortSpan{{Start: 10, End: 20, Port: 0, Out: true}}, 0, false},
		{"changed End", []PortSpan{{Start: 30, End: 41, Port: 0}}, 0, false},
		{"changed Start", []PortSpan{{Start: 29, End: 40, Port: 0}}, 0, false},
		{"ended at t", []PortSpan{{Start: 5, End: 10, Port: 0}}, 10, true},
		{"ended before t", []PortSpan{{Start: 1, End: 5, Port: 2, Out: true}, {Start: 30, End: 40, Port: 2, Out: true}}, 12, true},
		{"still visible at t", []PortSpan{{Start: 5, End: 11, Port: 0}}, 10, false},
		{"empty snapshot", nil, 0, true},
	} {
		if got := p.ContainsSpans(c.spans, c.t); got != c.want {
			t.Errorf("%s: ContainsSpans(%v, %d) = %v, want %v", c.name, c.spans, c.t, got, c.want)
		}
	}
	// An extra interval that overlaps nothing leaves the snapshot contained.
	p.Reserve(Reservation{In: 0, Out: 0, Start: 20, End: 30})
	if !p.ContainsSpans(snap, 0) {
		t.Fatal("an added interval broke containment")
	}
}

// TestPRTFits: Fits answers what TryReserve would, without changing the
// table — a suffix reservation overlapping an extra interval does not fit,
// one touching its end does — and a TryReserve that fails on its output port
// rolls its input side back.
func TestPRTFits(t *testing.T) {
	extra := Reservation{In: 2, Out: 2, Start: 30, End: 40}
	for _, c := range []struct {
		name string
		r    Reservation
		want bool
	}{
		{"overlaps the extra interval's input", Reservation{In: 2, Out: 0, Start: 35, End: 45}, false},
		{"overlaps the extra interval's output", Reservation{In: 1, Out: 2, Start: 25, End: 31}, false},
		{"inside the extra interval", Reservation{In: 1, Out: 2, Start: 32, End: 33}, false},
		{"touches its end", Reservation{In: 2, Out: 0, Start: 40, End: 45}, true},
		{"ends at its start", Reservation{In: 1, Out: 2, Start: 20, End: 30}, true},
		{"free ports", Reservation{In: 1, Out: 0, Start: 0, End: 100}, true},
		{"empty", Reservation{In: 1, Out: 0, Start: 5, End: 5}, false},
		{"before an earlier interval", Reservation{In: 0, Out: 0, Start: 0, End: 10}, true},
		{"over an earlier interval", Reservation{In: 0, Out: 0, Start: 5, End: 11}, false},
	} {
		q := NewPRT(3)
		q.Reserve(Reservation{In: 0, Out: 1, Start: 10, End: 20})
		q.Reserve(extra)
		if got := q.Fits(c.r); got != c.want {
			t.Errorf("%s: Fits = %v, want %v", c.name, got, c.want)
		}
		if q.Len() != 2 {
			t.Fatalf("%s: Fits changed the table", c.name)
		}
		if got := q.TryReserve(c.r) == nil; got != c.want {
			t.Errorf("%s: TryReserve succeeded = %v, Fits said %v", c.name, got, c.want)
		}
		want := 2
		if c.want {
			want = 3
		}
		if q.Len() != want {
			t.Errorf("%s: Len after TryReserve = %d, want %d", c.name, q.Len(), want)
		}
	}
}

// TestPRTBlockFillsGaps: a fault outage window over preloaded reservations
// fills only the free gaps — it begins inside one reservation and ends inside
// another, leaving every reservation as it was — and on a port with no
// reservations it is one interval.
func TestPRTBlockFillsGaps(t *testing.T) {
	p := NewPRT(2)
	if err := p.Preload([]Reservation{
		{CoflowID: 1, In: 0, Out: 1, Start: ns(0.5), End: ns(1.0), Setup: ns(0.01)},
		{CoflowID: 2, In: 0, Out: 1, Start: ns(1.5), End: ns(2.0), Setup: ns(0.01)},
		{CoflowID: 3, In: 0, Out: 1, Start: ns(3.0), End: ns(3.5), Setup: ns(0.01)},
	}); err != nil {
		t.Fatal(err)
	}
	p.Block(0, ns(0.75), ns(3.25))
	p.Block(1, ns(0.75), ns(3.25))
	want := []interval{
		{start: ns(0.5), end: ns(1.0), peer: 1},
		{start: ns(1.0), end: ns(1.5), peer: -1},
		{start: ns(1.5), end: ns(2.0), peer: 1},
		{start: ns(2.0), end: ns(3.0), peer: -1},
		{start: ns(3.0), end: ns(3.5), peer: 1},
	}
	if !slices.Equal(p.in[0].iv, want) {
		t.Fatalf("in.0 after Block = %+v, want %+v", p.in[0].iv, want)
	}
	if want := []interval{{start: ns(0.75), end: ns(3.25), peer: -1}}; !slices.Equal(p.in[1].iv, want) {
		t.Fatalf("in.1 after Block = %+v, want %+v", p.in[1].iv, want)
	}
	for _, c := range []struct {
		sec  float64
		free bool
		next int64
	}{
		{0, true, ns(0.5)},
		{0.6, false, ns(1.0)},
		{1.2, false, ns(1.5)},
		{2.24, false, ns(3.0)},
		{3.2, false, Forever},
		{3.6, true, Forever},
	} {
		tt := ns(c.sec)
		if got := p.FreeAt(0, 1, tt); got != c.free {
			t.Errorf("FreeAt(%v) = %v, want %v", tt, got, c.free)
		}
		if got := p.NextCommitment(0, 1, tt); got != c.next {
			t.Errorf("NextCommitment(%v) = %v, want %v", tt, got, c.next)
		}
	}
	if got := p.busyTime(0, 0, ns(4)); got != ns(3.0) {
		t.Fatalf("blocked table busy = %v, want 3.0 ([0.5,3.5) fully covered)", got)
	}
}

func TestPRTBusyTime(t *testing.T) {
	p := NewPRT(2)
	p.Reserve(Reservation{In: 0, Out: 1, Start: 1, End: 3})
	if got := p.busyTime(0, 0, 10); got != 2 {
		t.Fatalf("busyTime = %v", got)
	}
	if got := p.busyTime(0, 2, 10); got != 1 {
		t.Fatalf("busyTime clipped = %v", got)
	}
	if got := p.busyTime(1, 0, 10); got != 0 {
		t.Fatalf("busyTime idle port = %v", got)
	}
}

// busyTime sums reserved time on input port i within [from, to).
func (p *PRT) busyTime(i int, from, to int64) int64 {
	var sum int64
	for _, v := range p.in[i].iv {
		if lo, hi := max(v.start, from), min(v.end, to); hi > lo {
			sum += hi - lo
		}
	}
	return sum
}

// Len returns the number of reservations recorded: the input-side intervals
// that name a peer, as Block's gap fills do not.
func (p *PRT) Len() int {
	n := 0
	for i := range p.in {
		for _, v := range p.in[i].iv {
			if v.peer >= 0 {
				n++
			}
		}
	}
	return n
}

// containsSpansSearch is ContainsSpans as one binary search per visible
// span, the oracle the per-port merge walk must agree with.
func containsSpansSearch(p *PRT, spans []PortSpan, t int64) bool {
	for _, sp := range spans {
		if sp.End <= t {
			continue
		}
		tl := &p.in[sp.Port]
		if sp.Out {
			tl = &p.out[sp.Port]
		}
		if !tl.has(sp.Start, sp.End) {
			return false
		}
	}
	return true
}

// has reports whether the timeline holds exactly the interval [start, end).
// Starts are unique, so one hit decides.
func (tl *timeline) has(start, end int64) bool {
	i, ok := slices.BinarySearchFunc(tl.iv, start, byStart)
	return ok && tl.iv[i].end == end
}

// TestQuickContainsSpansMatchesSearch holds the merge walk to the per-span
// search on random tables: a snapshot is taken (SpansOn, with a random
// horizon) from a table, then the table loses intervals, has others moved by
// a few ticks and gains extra ones; the check instant lies at or after the
// snapshot's, so spans expire, some at exactly the check instant. The test
// fails unless both verdicts were drawn.
func TestQuickContainsSpansMatchesSearch(t *testing.T) {
	var held, broken int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 1 + rng.Intn(4)
		p := NewPRT(ports)
		fill := func(n int) {
			for ; n > 0; n-- {
				start := int64(rng.Intn(1000))
				_ = p.TryReserve(Reservation{In: rng.Intn(ports), Out: rng.Intn(ports), Start: start, End: start + 1 + int64(rng.Intn(60))})
			}
		}
		fill(rng.Intn(50))
		var ins, outs []int
		for q := 0; q < ports; q++ {
			if rng.Intn(3) > 0 {
				ins = append(ins, q)
			}
			if rng.Intn(3) > 0 {
				outs = append(outs, q)
			}
		}
		t0 := int64(rng.Intn(1100)) - 50
		horizon := int64(Forever)
		if rng.Intn(2) == 0 {
			horizon = t0 + int64(rng.Intn(600))
		}
		snap := p.SpansOn(t0, horizon, ins, outs, nil)
		// Change the table under the snapshot: drop intervals, move others
		// by a few ticks where that still fits, add extra ones.
		for q := 0; q < 2*ports; q++ {
			tl := &p.in[q%ports]
			if q >= ports {
				tl = &p.out[q%ports]
			}
			for _, v := range slices.Clone(tl.iv) {
				switch rng.Intn(12) {
				case 0:
					tl.remove(v.start)
				case 1:
					tl.remove(v.start)
					d := int64(rng.Intn(7) - 3)
					if !tl.insert(v.start+d, v.end+d, v.peer) {
						tl.insert(v.start, v.end, v.peer)
					}
				}
			}
		}
		fill(rng.Intn(10))
		at := t0 + int64(rng.Intn(400))
		if len(snap) > 0 && rng.Intn(4) == 0 {
			at = max(t0, snap[rng.Intn(len(snap))].End) // a span ends exactly at the check
		}
		got, want := p.ContainsSpans(snap, at), containsSpansSearch(p, snap, at)
		if got != want {
			t.Logf("seed %d: ContainsSpans(%v, %d) = %v, per-span search %v", seed, snap, at, got, want)
			return false
		}
		if want {
			held++
		} else {
			broken++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d contained, %d broken", held, broken)
	if held == 0 || broken == 0 {
		t.Fatalf("drew %d contained and %d broken snapshots; want both", held, broken)
	}
}
