package core

import (
	"math"
	"slices"
	"testing"
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
// ended by t no longer count. Spans on an archived (compacted) interval are
// found as well.
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
	p.CompactBefore(35)
	if !p.ContainsSpans(snap, 0) || p.ContainsSpans([]PortSpan{{Start: 10, End: 19, Port: 0}}, 0) {
		t.Fatal("containment must read archived intervals exactly")
	}
}

// TestPRTFits: Fits answers what TryReserve would, without changing the
// table — a suffix reservation overlapping an extra interval does not fit,
// one touching its end does, on live and archived intervals alike.
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
		{"before an archived interval", Reservation{In: 0, Out: 0, Start: 0, End: 10}, true},
		{"over an archived interval", Reservation{In: 0, Out: 0, Start: 5, End: 11}, false},
	} {
		for _, compacted := range []bool{false, true} {
			q := NewPRT(3)
			q.Reserve(Reservation{In: 0, Out: 1, Start: 10, End: 20})
			q.Reserve(extra)
			if compacted {
				q.CompactBefore(25)
			}
			if got := q.Fits(c.r); got != c.want {
				t.Errorf("%s (compacted %v): Fits = %v, want %v", c.name, compacted, got, c.want)
			}
			if q.Len() != 2 {
				t.Fatalf("%s: Fits changed the table", c.name)
			}
			if got := q.TryReserve(c.r) == nil; got != c.want {
				t.Errorf("%s (compacted %v): TryReserve succeeded = %v, Fits said %v", c.name, compacted, got, c.want)
			}
		}
	}
}

// TestPRTBlockStraddlesHorizon: a fault outage window that straddles the
// compaction horizon must compose with archived reservations exactly as it
// would on an uncompacted table — same gap fills, same truncation against
// preloaded circuits, same answers afterwards.
func TestPRTBlockStraddlesHorizon(t *testing.T) {
	build := func() *PRT {
		p := NewPRT(2)
		p.Preload([]Reservation{
			{CoflowID: 1, In: 0, Out: 1, Start: ns(0.5), End: ns(1.0), Setup: ns(0.01)},
			{CoflowID: 2, In: 0, Out: 1, Start: ns(1.5), End: ns(2.0), Setup: ns(0.01)},
			{CoflowID: 3, In: 0, Out: 1, Start: ns(3.0), End: ns(3.5), Setup: ns(0.01)},
		})
		return p
	}
	compacted, plain := build(), build()
	compacted.CompactBefore(ns(2.25))
	if n, busy := compacted.Compacted(); n != 4 || busy != ns(2.0) {
		t.Fatalf("Compacted() = %d, %v; want 4 intervals, 2.0s", n, busy)
	}

	// The outage [0.75, 3.25) begins inside an archived reservation, spans the
	// horizon at 2.25, and ends inside a live one.
	for _, p := range []*PRT{compacted, plain} {
		p.Block(0, ns(0.75), ns(3.25))
		p.Block(1, ns(0.75), ns(3.25))
	}
	if !samePRT(compacted, plain) {
		t.Fatalf("block across horizon diverges:\ncompacted in0: %+v %+v\nplain in0: %+v",
			compacted.in[0].old, compacted.in[0].iv, plain.in[0].iv)
	}
	for _, sec := range []float64{0, 0.6, 1.2, 2.24, 2.26, 3.2, 3.6} {
		tt := ns(sec)
		if a, b := compacted.FreeAt(0, 1, tt), plain.FreeAt(0, 1, tt); a != b {
			t.Fatalf("FreeAt(%v) diverges: compacted=%v plain=%v", tt, a, b)
		}
		if a, b := compacted.NextCommitment(0, 1, tt), plain.NextCommitment(0, 1, tt); a != b {
			t.Fatalf("NextCommitment(%v) diverges: %v vs %v", tt, a, b)
		}
		if a, b := compacted.busyTime(0, 0, tt+ns(0.1)), plain.busyTime(0, 0, tt+ns(0.1)); a != b {
			t.Fatalf("busyTime(0,0,%v) diverges: %v vs %v", tt+ns(0.1), a, b)
		}
	}
	// The gap fills landed where an uncompacted walk would put them: the free
	// gaps [1.0,1.5) and [2.0,3.0) filled, reservations untouched, so the
	// whole [0.5,3.5) span is busy.
	wantBusy := plain.busyTime(0, 0, ns(4))
	if got := compacted.busyTime(0, 0, ns(4)); got != wantBusy {
		t.Fatalf("total busy = %v, want %v", got, wantBusy)
	}
	if wantBusy != ns(3.0) {
		t.Fatalf("blocked table busy = %v, want 3.0 ([0.5,3.5) fully covered)", wantBusy)
	}
}

// TestPRTCompactionBookkeeping pins the horizon semantics: monotone advance,
// Forever rejected, Reset rewinds, and TryReserve rollback still works when the
// insert landed in the archive.
func TestPRTCompactionBookkeeping(t *testing.T) {
	p := NewPRT(1)
	if p.Horizon() != math.MinInt64 {
		t.Fatalf("fresh horizon = %v", p.Horizon())
	}
	p.Reserve(Reservation{In: 0, Out: 0, Start: 0, End: 10})
	p.Reserve(Reservation{In: 0, Out: 0, Start: 14, End: 15})
	p.Reserve(Reservation{In: 0, Out: 0, Start: 20, End: 30})
	p.CompactBefore(15)
	if p.Horizon() != 15 {
		t.Fatalf("horizon = %v", p.Horizon())
	}
	p.CompactBefore(10) // regression must be a no-op
	if p.Horizon() != 15 {
		t.Fatalf("horizon moved backwards: %v", p.Horizon())
	}
	p.CompactBefore(Forever) // Forever would retire the whole live window
	if p.Horizon() != 15 {
		t.Fatalf("Forever advanced the horizon: %v", p.Horizon())
	}
	if n, busy := p.Compacted(); n != 4 || busy != 22 {
		t.Fatalf("Compacted() = %d, %v; want 4 intervals, 2.2s", n, busy)
	}

	// A rollback whose input-side insert landed in the archive — the insert
	// point precedes the last archived start — must remove it from the
	// archive, restoring oldBusy. Occupy the output side directly so the
	// second half of TryReserve fails.
	if !p.out[0].insert(10, 13, -1) {
		t.Fatal("scaffolding insert rejected")
	}
	wantN, wantBusy := p.Compacted()
	if err := p.TryReserve(Reservation{In: 0, Out: 0, Start: 11, End: 13}); err == nil {
		t.Fatal("reservation over an occupied output accepted")
	}
	if n, busy := p.Compacted(); n != wantN || busy != wantBusy {
		t.Fatalf("rollback leaked into archive: Compacted() = %d, %v; want %d, %v", n, busy, wantN, wantBusy)
	}
	if !p.in[0].freeAt(12) {
		t.Fatal("rolled-back input slot should be free")
	}

	p.Reset()
	if p.Horizon() != math.MinInt64 || p.Len() != 0 {
		t.Fatalf("Reset left horizon=%v len=%d", p.Horizon(), p.Len())
	}
	if n, busy := p.Compacted(); n != 0 || busy != 0 {
		t.Fatalf("Reset left archive: %d, %v", n, busy)
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

// busyTime sums reserved time on input port i within [from, to), over the
// archive and the live window alike.
func (p *PRT) busyTime(i int, from, to int64) int64 {
	var sum int64
	for _, ivs := range p.in[i].halves() {
		for _, v := range ivs {
			if lo, hi := max(v.start, from), min(v.end, to); hi > lo {
				sum += hi - lo
			}
		}
	}
	return sum
}

// Compacted reports the archive size: how many intervals have been retired
// across all port timelines and their total busy ticks.
func (p *PRT) Compacted() (intervals int, busy int64) {
	for _, tl := range append(slices.Clone(p.in), p.out...) {
		for _, v := range tl.old {
			intervals++
			busy += v.end - v.start
		}
	}
	return intervals, busy
}
