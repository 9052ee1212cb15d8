package core

import (
	"math"
	"testing"
)

func TestTimelineInsertAndQueries(t *testing.T) {
	var tl timeline
	if !tl.insert(1, 2, 0) || !tl.insert(3, 4, 0) || !tl.insert(2, 3, 0) {
		t.Fatal("non-overlapping inserts rejected")
	}
	if tl.insert(3.5, 5, 0) {
		t.Fatal("overlapping insert accepted")
	}
	if tl.insert(0.5, 1.5, 0) {
		t.Fatal("overlapping insert accepted")
	}
	if !tl.freeAt(0.5) || tl.freeAt(1.5) || tl.freeAt(3) {
		t.Fatal("freeAt wrong")
	}
	// End of an interval is free (half-open).
	if !tl.freeAt(4) {
		t.Fatal("freeAt(end) should be free")
	}
	if got := tl.nextStart(0); got != 1 {
		t.Fatalf("nextStart(0) = %v", got)
	}
	if got := tl.nextStart(1); got != 2 {
		t.Fatalf("nextStart(1) = %v", got)
	}
	if got := tl.nextStart(4); !math.IsInf(got, 1) {
		t.Fatalf("nextStart(4) = %v", got)
	}
	ends := tl.endsAfter(2.5, nil)
	if len(ends) != 2 || ends[0] != 3 || ends[1] != 4 {
		t.Fatalf("endsAfter = %v", ends)
	}
}

func TestPRTReserveAndPortConstraint(t *testing.T) {
	p := NewPRT(3)
	r := Reservation{CoflowID: 1, In: 0, Out: 1, Start: 0, End: 1, Setup: 0.1, Bytes: 100}
	p.Reserve(r)
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.FreeAt(0, 2, 0.5) {
		t.Fatal("input port 0 should be busy")
	}
	if p.FreeAt(2, 1, 0.5) {
		t.Fatal("output port 1 should be busy")
	}
	if !p.FreeAt(2, 2, 0.5) {
		t.Fatal("unrelated ports should be free")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("double-booking must panic")
		}
	}()
	p.Reserve(Reservation{CoflowID: 2, In: 0, Out: 2, Start: 0.5, End: 0.7})
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
	if got := p.NextCommitment(0, 1, 6); !math.IsInf(got, 1) {
		t.Fatalf("NextCommitment past all = %v", got)
	}
}

func TestReservationDelivered(t *testing.T) {
	const bps = 1e9
	r := Reservation{Start: 1, End: 1 + 0.01 + 0.008, Setup: 0.01, Bytes: 1e6}
	if got := r.Delivered(1.005, bps); got != 0 {
		t.Fatalf("during setup: %v", got)
	}
	if got := r.Delivered(1.014, bps); got < 0.5e6-1 || got > 0.5e6 {
		t.Fatalf("halfway: %v", got)
	}
	if got := r.Delivered(r.End-1e-12, bps); got > r.Bytes {
		t.Fatalf("just before the end: %v exceeds Bytes", got)
	}
	if got := r.Delivered(10, bps); got != 1e6 {
		t.Fatalf("after end: %v", got)
	}
}

func TestPRTReleasesAfter(t *testing.T) {
	p := NewPRT(3)
	p.Reserve(Reservation{In: 0, Out: 1, Start: 0, End: 2})
	p.Reserve(Reservation{In: 1, Out: 2, Start: 1, End: 3})
	got := p.ReleasesAfter(0.5, []int{0, 1}, []int{1, 2}, nil)
	// in.0 end 2, in.1 end 3, out.1 end 2, out.2 end 3 — duplicates fine.
	if len(got) != 4 {
		t.Fatalf("ReleasesAfter = %v", got)
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
			{CoflowID: 1, In: 0, Out: 1, Start: 0.5, End: 1.0, Setup: 0.01},
			{CoflowID: 2, In: 0, Out: 1, Start: 1.5, End: 2.0, Setup: 0.01},
			{CoflowID: 3, In: 0, Out: 1, Start: 3.0, End: 3.5, Setup: 0.01},
		})
		return p
	}
	compacted, plain := build(), build()
	compacted.CompactBefore(2.25)
	if n, busy := compacted.Compacted(); n != 4 || math.Abs(busy-2.0) > 1e-12 {
		t.Fatalf("Compacted() = %d, %v; want 4 intervals, 2.0s", n, busy)
	}

	// The outage [0.75, 3.25) begins inside an archived reservation, spans the
	// horizon at 2.25, and ends inside a live one.
	for _, p := range []*PRT{compacted, plain} {
		p.Block(0, 0.75, 3.25)
		p.Block(1, 0.75, 3.25)
	}
	if !samePRT(compacted, plain) {
		t.Fatalf("block across horizon diverges:\ncompacted in0: %+v %+v\nplain in0: %+v",
			compacted.in[0].old, compacted.in[0].iv, plain.in[0].iv)
	}
	for _, tt := range []float64{0, 0.6, 1.2, 2.24, 2.26, 3.2, 3.6} {
		if a, b := compacted.FreeAt(0, 1, tt), plain.FreeAt(0, 1, tt); a != b {
			t.Fatalf("FreeAt(%v) diverges: compacted=%v plain=%v", tt, a, b)
		}
		if a, b := compacted.NextCommitment(0, 1, tt), plain.NextCommitment(0, 1, tt); a != b {
			t.Fatalf("NextCommitment(%v) diverges: %v vs %v", tt, a, b)
		}
		if a, b := compacted.busyTime(0, 0, tt+0.1), plain.busyTime(0, 0, tt+0.1); math.Abs(a-b) > 1e-12 {
			t.Fatalf("busyTime(0,0,%v) diverges: %v vs %v", tt+0.1, a, b)
		}
	}
	// The gap fills landed where an uncompacted walk would put them: the free
	// gaps [1.0,1.5) and [2.0,3.0) filled, reservations untouched, so the
	// whole [0.5,3.5) span is busy.
	wantBusy := plain.busyTime(0, 0, 4)
	if got := compacted.busyTime(0, 0, 4); math.Abs(got-wantBusy) > 1e-12 {
		t.Fatalf("total busy = %v, want %v", got, wantBusy)
	}
	if wantBusy != 3.0 {
		t.Fatalf("blocked table busy = %v, want 3.0 ([0.5,3.5) fully covered)", wantBusy)
	}
}

// TestPRTCompactionBookkeeping pins the horizon semantics: monotone advance,
// +Inf rejected, Reset rewinds, and TryReserve rollback still works when the
// insert landed in the archive.
func TestPRTCompactionBookkeeping(t *testing.T) {
	p := NewPRT(1)
	if !math.IsInf(p.Horizon(), -1) {
		t.Fatalf("fresh horizon = %v", p.Horizon())
	}
	p.Reserve(Reservation{In: 0, Out: 0, Start: 0, End: 1})
	p.Reserve(Reservation{In: 0, Out: 0, Start: 1.4, End: 1.5})
	p.Reserve(Reservation{In: 0, Out: 0, Start: 2, End: 3})
	p.CompactBefore(1.5)
	if p.Horizon() != 1.5 {
		t.Fatalf("horizon = %v", p.Horizon())
	}
	p.CompactBefore(1.0) // regression must be a no-op
	if p.Horizon() != 1.5 {
		t.Fatalf("horizon moved backwards: %v", p.Horizon())
	}
	p.CompactBefore(math.Inf(1)) // +Inf would retire the whole live window
	if p.Horizon() != 1.5 {
		t.Fatalf("+Inf advanced the horizon: %v", p.Horizon())
	}
	if n, busy := p.Compacted(); n != 4 || math.Abs(busy-2.2) > 1e-12 {
		t.Fatalf("Compacted() = %d, %v; want 4 intervals, 2.2s", n, busy)
	}

	// A rollback whose input-side insert landed in the archive — the insert
	// point precedes the last archived start — must remove it from the
	// archive, restoring oldBusy. Occupy the output side directly so the
	// second half of TryReserve fails.
	if !p.out[0].insert(1.05, 1.35, -1) {
		t.Fatal("scaffolding insert rejected")
	}
	wantN, wantBusy := p.Compacted()
	if err := p.TryReserve(Reservation{In: 0, Out: 0, Start: 1.1, End: 1.3}); err == nil {
		t.Fatal("reservation over an occupied output accepted")
	}
	if n, busy := p.Compacted(); n != wantN || busy != wantBusy {
		t.Fatalf("rollback leaked into archive: Compacted() = %d, %v; want %d, %v", n, busy, wantN, wantBusy)
	}
	if !p.in[0].freeAt(1.2) {
		t.Fatal("rolled-back input slot should be free")
	}

	p.Reset()
	if !math.IsInf(p.Horizon(), -1) || p.Len() != 0 {
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
