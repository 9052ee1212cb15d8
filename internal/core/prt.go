// Package core implements Sunflow, the circuit scheduling algorithm of
// Huang, Sun and Ng (CoNEXT 2016): non-preemptive intra-Coflow circuit
// reservation over a Port Reservation Table (PRT), priority-ordered
// inter-Coflow scheduling, and the (T, τ) starvation-avoidance windows of
// §4.2.
//
// The switch follows the not-all-stop model of §2.1: an input (output) port
// carries at most one circuit at a time, each circuit establishment costs a
// fixed delay δ during which only the two ports involved are stopped, and a
// circuit transmits at the full link rate B once established.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Reservation is one circuit held on the port pair [In, Out] during
// [Start, End), in ticks (ns). The first Setup ticks configure the circuit;
// the remainder transmits at the full link rate. A reservation is the unit of
// switching: each reservation costs exactly one circuit establishment.
type Reservation struct {
	// CoflowID is the Coflow the reservation serves.
	CoflowID int
	// In and Out are the input and output port of the circuit.
	In, Out int
	// Start and End delimit the half-open interval during which both ports
	// are held.
	Start, End int64
	// Setup is the circuit reconfiguration delay paid at the start of the
	// reservation (δ).
	Setup int64
	// Bytes is the whole-byte demand the reservation serves: the flow's
	// remaining bytes on the reservation that finishes it, otherwise the
	// whole bytes the hold carries, ⌊(End-Start-Setup)·B/8e9⌋.
	Bytes int64
}

// CompareReservations orders reservations by (Start, In, Out), the canonical
// plan order. Port exclusivity makes the key total over any one plan: two
// reservations sharing Start and In would overlap on the input port.
func CompareReservations(a, b Reservation) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.In, b.In), cmp.Compare(a.Out, b.Out))
}

// TransmitStart returns the instant the circuit begins carrying data.
func (r Reservation) TransmitStart() int64 { return r.Start + r.Setup }

// Delivered returns how many of the reservation's Bytes the circuit has
// carried by t at bps bits/s: none before TransmitStart, all of them from
// End on, and min(Bytes, ⌊(t−TransmitStart)·B/8e9⌋) in between. Differences
// of Delivered telescope, so crediting a window in pieces debits exactly
// what crediting it whole does.
func (r Reservation) Delivered(t int64, bps float64) int64 {
	ts := r.TransmitStart()
	switch {
	case t <= ts:
		return 0
	case t >= r.End:
		return r.Bytes
	}
	return min(r.Bytes, carried(t-ts, bps))
}

// interval is one busy period on a single port's timeline.
type interval struct {
	start, end int64
	peer       int // the port on the other side of the circuit
}

// timeline holds the sorted non-overlapping busy intervals of one port, split
// at the compaction horizon into a small live window and a cold archive.
//
// Invariant: old ++ iv is the full timeline in ascending start order. Every
// archived interval starts before every live one (an interval whose end is at
// or below the horizon cannot start after one whose end is above it without
// overlapping), so the hot queries — freeAt, nextStart, insert — bind against
// the live window and consult the archive only when the query time precedes
// the whole window. Because sorted non-overlapping intervals are also sorted
// by end, binary search is valid on ends as well as starts in both halves.
// The archived intervals are kept so every query — a fault Block straddling
// the horizon, a rollback remove — stays exact.
type timeline struct {
	iv  []interval // live window: intervals ending after the horizon
	old []interval // archive: retired intervals, ascending start
}

// halves returns the archive and the live window, in merged start order.
func (tl *timeline) halves() [2][]interval { return [2][]interval{tl.old, tl.iv} }

// searchAfter returns the index of the first live interval with start > t.
func (tl *timeline) searchAfter(t int64) int {
	return sort.Search(len(tl.iv), func(i int) bool { return tl.iv[i].start > t })
}

// searchOldAfter returns the index of the first archived interval with
// start > t.
func (tl *timeline) searchOldAfter(t int64) int {
	return sort.Search(len(tl.old), func(i int) bool { return tl.old[i].start > t })
}

// freeAt reports whether the port is free at time t, i.e. no interval
// contains t.
func (tl *timeline) freeAt(t int64) bool { return tl.freeFrom(tl.searchAfter(t), t) }

// freeFrom is freeAt given i, the index of the first live interval with
// start > t.
func (tl *timeline) freeFrom(i int, t int64) bool {
	if i > 0 {
		// The candidate containing interval is the one before index i; any
		// archived interval ends at or before this one's start.
		return tl.iv[i-1].end <= t
	}
	// t precedes the live window: the candidate is in the archive.
	if k := tl.searchOldAfter(t); k > 0 {
		return tl.old[k-1].end <= t
	}
	return true
}

// nextStart returns the start of the earliest interval beginning after t, or
// Forever when the port has no later commitment.
func (tl *timeline) nextStart(t int64) int64 { return tl.nextStartFrom(tl.searchAfter(t), t) }

// nextStartFrom is nextStart given i, the index of the first live interval
// with start > t.
func (tl *timeline) nextStartFrom(i int, t int64) int64 {
	// Archived intervals all start before live ones, so if any archived start
	// lies after t it is the answer.
	if n := len(tl.old); n > 0 && tl.old[n-1].start > t {
		return tl.old[tl.searchOldAfter(t)].start
	}
	if i == len(tl.iv) {
		return Forever
	}
	return tl.iv[i].start
}

// nextEndFrom returns the earliest end after t of an interval on the
// timeline, given i, the index of the first live interval with start > t; ok
// is false when every interval ends by t. The interval before i is the only
// live one that can hold t; when i is 0, t precedes the live window and the
// answer may lie in the archive.
func (tl *timeline) nextEndFrom(i int, t int64) (end int64, ok bool) {
	if i > 0 {
		if e := tl.iv[i-1].end; e > t {
			return e, true
		}
	} else if n := len(tl.old); n > 0 && tl.old[n-1].end > t {
		return tl.old[endsAfter(tl.old, t)].end, true
	}
	if i < len(tl.iv) {
		return tl.iv[i].end, true
	}
	return 0, false
}

// seek advances i, an index into the live window at or before the first
// interval with start > t, to exactly that interval.
func (tl *timeline) seek(i int, t int64) int {
	for i < len(tl.iv) && tl.iv[i].start <= t {
		i++
	}
	return i
}

// gap locates the interval [start, end) on the timeline: ok reports that it
// overlaps no existing interval, and then it belongs at index k of the
// archive (archived) or of the live window. An interval sorting before an
// archived one goes into the archive, so the old-before-live start order is
// preserved.
func (tl *timeline) gap(start, end int64) (archived bool, k int, ok bool) {
	if no := len(tl.old); no > 0 && tl.old[no-1].start > start {
		k := tl.searchOldAfter(start)
		// The successor old[k] exists (old[no-1].start > start) and already
		// precedes every live interval, so clearing it clears the window too.
		return true, k, (k == 0 || tl.old[k-1].end <= start) && tl.old[k].start >= end
	}
	i := tl.searchAfter(start)
	if i > 0 {
		if tl.iv[i-1].end > start {
			return false, i, false
		}
	} else if no := len(tl.old); no > 0 && tl.old[no-1].end > start {
		return false, i, false
	}
	return false, i, i == len(tl.iv) || tl.iv[i].start >= end
}

// insert adds the interval [start, end) and reports whether it was free of
// overlap, keeping both halves sorted.
func (tl *timeline) insert(start, end int64, peer int) bool {
	archived, k, ok := tl.gap(start, end)
	if !ok {
		return false
	}
	ivs := &tl.iv
	if archived {
		ivs = &tl.old
	}
	*ivs = append(*ivs, interval{})
	copy((*ivs)[k+1:], (*ivs)[k:])
	(*ivs)[k] = interval{start: start, end: end, peer: peer}
	return true
}

// remove deletes the interval starting at start, if present.
// The live window is tried first — rollback of a just-inserted reservation is
// the hot case — then the archive.
func (tl *timeline) remove(start int64) {
	if i, ok := slices.BinarySearchFunc(tl.iv, start, byStart); ok {
		tl.iv = slices.Delete(tl.iv, i, i+1)
	} else if i, ok := slices.BinarySearchFunc(tl.old, start, byStart); ok {
		tl.old = slices.Delete(tl.old, i, i+1)
	}
}

// byStart compares an interval's start with t, for binary searches by start.
func byStart(v interval, t int64) int { return cmp.Compare(v.start, t) }

// block fills the free gaps of [start, end) with busy intervals (peer -1),
// leaving existing intervals untouched. The walk runs over the archive then
// the live window — the merged ascending order — so windows straddling the
// compaction horizon compose exactly as on an uncompacted timeline.
func (tl *timeline) block(start, end int64) {
	if end <= start {
		return
	}
	cur := start
	var gaps []interval
	for _, ivs := range tl.halves() {
		for k := endsAfter(ivs, start); k < len(ivs) && ivs[k].start < end; k++ {
			if ivs[k].start > cur {
				gaps = append(gaps, interval{start: cur, end: min(ivs[k].start, end), peer: -1})
			}
			cur = max(cur, ivs[k].end)
		}
	}
	if cur < end {
		gaps = append(gaps, interval{start: cur, end: end, peer: -1})
	}
	for _, g := range gaps {
		tl.insert(g.start, g.end, g.peer)
	}
}

// endsAfter appends to dst the end times of all intervals ending after t.
// Sorted starts plus non-overlap make ends sorted too, so the suffix of each
// half is found by binary search.
func (tl *timeline) endsAfter(t int64, dst []int64) []int64 {
	for _, ivs := range tl.halves() {
		for _, v := range ivs[endsAfter(ivs, t):] {
			dst = append(dst, v.end)
		}
	}
	return dst
}

// endsAfter returns the index of the first of the sorted intervals ivs that
// ends after t.
func endsAfter(ivs []interval, t int64) int {
	return sort.Search(len(ivs), func(i int) bool { return ivs[i].end > t })
}

// compact retires the live intervals ending at or before h into the archive.
func (tl *timeline) compact(h int64) {
	k := endsAfter(tl.iv, h)
	if k == 0 {
		return
	}
	tl.old = append(tl.old, tl.iv[:k]...)
	n := copy(tl.iv, tl.iv[k:])
	tl.iv = tl.iv[:n]
}

// grow reserves capacity for n more live intervals, so a scheduling pass that
// knows its demand can avoid repeated append growth.
func (tl *timeline) grow(n int) {
	tl.iv = slices.Grow(tl.iv, n)
}

// reset empties the timeline, keeping capacity for reuse.
func (tl *timeline) reset() {
	tl.iv = tl.iv[:0]
	tl.old = tl.old[:0]
}

// Blackout describes recurring periods during which ports may not accept
// normal reservations — used by the starvation-avoidance fair windows of
// §4.2, which dedicate τ-long slices of every (T+τ) interval to a fixed
// round-robin assignment shared by all Coflows.
type Blackout interface {
	// Covers reports whether normal reservations are forbidden at tick t.
	Covers(t int64) bool
	// NextStart returns the start of the first blackout beginning after t,
	// or Forever.
	NextStart(t int64) int64
	// NextEnd returns the end of the first blackout ending after t, or
	// Forever.
	NextEnd(t int64) int64
}

// PRT is the Port Reservation Table of Algorithm 1: per-port timelines of
// circuit reservations for the input and output side of an N-port optical
// switch. The zero value is unusable; construct with NewPRT.
type PRT struct {
	n        int
	in, out  []timeline
	blackout Blackout
	count    int
	horizon  int64
	// bulk counts reservations appended by BulkAdd but not yet committed by
	// FinishBulk; bulkTouched marks the timelines they landed on, bit 2i for
	// input port i and bit 2i+1 for output port i.
	bulk        int
	bulkTouched []uint64
	// intra is the fast intra search's working set, allocated on first use.
	// It lives with the table because searches on one table are serialized
	// (each mutates it) and callers reuse their table pass after pass; unlike
	// a sync.Pool, no GC cycle drops it, so a pass allocates the same
	// whatever the heap does.
	intra *intraScratch
}

// intraScratch returns the table's intra search working set.
func (p *PRT) intraScratch() *intraScratch {
	if p.intra == nil {
		p.intra = new(intraScratch)
	}
	return p.intra
}

// NewPRT returns an empty PRT for an n-port switch.
func NewPRT(n int) *PRT {
	return &PRT{n: n, in: make([]timeline, n), out: make([]timeline, n), horizon: math.MinInt64}
}

// Ports returns the switch port count N.
func (p *PRT) Ports() int { return p.n }

// Len returns the number of reservations recorded.
func (p *PRT) Len() int { return p.count }

// SetBlackout installs recurring no-reservation windows (nil disables).
func (p *PRT) SetBlackout(b Blackout) { p.blackout = b }

// Reset empties the table for reuse, keeping the per-port capacity already
// grown — an online simulator replanning hundreds of times avoids
// reallocating every timeline each pass.
func (p *PRT) Reset() {
	for i := range p.in {
		p.in[i].reset()
		p.out[i].reset()
	}
	p.blackout = nil
	p.count = 0
	p.bulk = 0
	clear(p.bulkTouched)
	p.horizon = math.MinInt64
}

// CompactBefore retires, on every port timeline, the intervals ending at or
// before t into the per-port archive. The horizon only advances: calls with
// t at or below the current horizon are no-ops. Compaction never changes any
// query's answer — archived intervals still back freeAt, Block and remove on
// the cold side — it only keeps the live windows the hot queries
// bind against small. InterCoflow drives it with the schedule cursor.
func (p *PRT) CompactBefore(t int64) {
	if t <= p.horizon || t == Forever {
		return
	}
	p.horizon = t
	for i := range p.in {
		p.in[i].compact(t)
		p.out[i].compact(t)
	}
}

// Horizon returns the current compaction horizon, math.MinInt64 before any
// compaction.
func (p *PRT) Horizon() int64 { return p.horizon }

// FreeAt reports whether both in.i and out.j are free at time t and t is not
// inside a blackout window.
func (p *PRT) FreeAt(i, j int, t int64) bool {
	if p.blackout != nil && p.blackout.Covers(t) {
		return false
	}
	return p.in[i].freeAt(t) && p.out[j].freeAt(t)
}

// NextCommitment returns tm, the earliest next reservation start on in.i or
// out.j after t — the bound that shortens reservations at the inter-Coflow
// level (Algorithm 1, line 16) — also accounting for the next blackout
// window.
func (p *PRT) NextCommitment(i, j int, t int64) int64 {
	tm := min(p.in[i].nextStart(t), p.out[j].nextStart(t))
	if p.blackout != nil {
		tm = min(tm, p.blackout.NextStart(t))
	}
	return tm
}

// ErrDoubleBooked reports a reservation overlapping an existing one on a
// port timeline.
var ErrDoubleBooked = errors.New("core: port double-booked")

// ErrEmptyReservation reports a reservation with a non-positive interval.
var ErrEmptyReservation = errors.New("core: empty reservation")

// TryReserve records the reservation on both port timelines, or returns a
// typed error (ErrEmptyReservation, ErrDoubleBooked) leaving the table
// unchanged. The fault repair path uses it to preload in-flight circuits
// into a degraded table where a conflict is an expected outcome, not a
// programming error.
func (p *PRT) TryReserve(r Reservation) error {
	if r.End <= r.Start {
		return fmt.Errorf("%w: %+v", ErrEmptyReservation, r)
	}
	if !p.in[r.In].insert(r.Start, r.End, r.Out) {
		return fmt.Errorf("%w: input port %d at [%d,%d)", ErrDoubleBooked, r.In, r.Start, r.End)
	}
	if !p.out[r.Out].insert(r.Start, r.End, r.In) {
		// Roll the input side back so a failed TryReserve is a no-op.
		p.in[r.In].remove(r.Start)
		return fmt.Errorf("%w: output port %d at [%d,%d)", ErrDoubleBooked, r.Out, r.Start, r.End)
	}
	p.count++
	return nil
}

// Reserve records the reservation on both port timelines. It panics if the
// interval overlaps an existing reservation on either port, which would mean
// the scheduler violated the port constraint — a programming error. Callers
// that can legitimately collide use TryReserve.
func (p *PRT) Reserve(r Reservation) {
	if err := p.TryReserve(r); err != nil {
		panic(err.Error())
	}
}

// Block marks [start, end) unusable on both sides of the port — a fault
// outage. End may be Forever for a permanent failure. Portions of the window
// already covered by existing intervals are skipped, so blocking composes
// with reservations preloaded first (an established circuit spanning a
// future outage edge is truncated by the simulator at the edge, not here).
func (p *PRT) Block(port int, start, end int64) {
	p.in[port].block(start, end)
	p.out[port].block(start, end)
}

// Preload seeds the PRT with reservations that must not be preempted —
// circuits already established when an online reschedule happens.
func (p *PRT) Preload(rs []Reservation) {
	for _, r := range rs {
		p.Reserve(r)
	}
}

// BulkAdd appends reservations to the port timelines without searching for
// their sorted position — the fast path an incremental replan uses to re-seed
// a freshly Reset table with the locked set, known conflict-free from the
// previous pass. Between BulkAdd and FinishBulk the timeline invariants are
// suspended and every query is undefined; FinishBulk restores them. Only
// valid on a table with no archived intervals (any fresh Reset qualifies).
func (p *PRT) BulkAdd(rs []Reservation) {
	if p.bulkTouched == nil {
		p.bulkTouched = make([]uint64, (2*p.n+63)/64)
	}
	for i := range rs {
		r := &rs[i]
		p.in[r.In].iv = append(p.in[r.In].iv, interval{start: r.Start, end: r.End, peer: r.Out})
		p.out[r.Out].iv = append(p.out[r.Out].iv, interval{start: r.Start, end: r.End, peer: r.In})
		setBit(p.bulkTouched, 2*r.In)
		setBit(p.bulkTouched, 2*r.Out+1)
	}
	p.bulk += len(rs)
}

// FinishBulk restores the timeline invariants after one or more BulkAdd
// calls: each touched timeline is re-sorted (skipped when the appends arrived
// already ordered) and verified non-overlapping, as insert checks. Untouched
// timelines already hold the invariants and are not visited; touched ones
// are visited in port order, input before output. On error
// (ErrEmptyReservation, ErrDoubleBooked, or a compacted timeline) the table
// state is unspecified and the caller must Reset before reusing it.
func (p *PRT) FinishBulk() error {
	added := p.bulk
	p.bulk = 0
	for w, word := range p.bulkTouched {
		p.bulkTouched[w] = 0
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			tl, side := &p.in[b>>1], "input"
			if b&1 == 1 {
				tl, side = &p.out[b>>1], "output"
			}
			if err := tl.finishBulk(side, b>>1); err != nil {
				return err
			}
		}
	}
	p.count += added
	return nil
}

// finishBulk re-establishes one timeline's sorted non-overlap invariant.
func (tl *timeline) finishBulk(side string, port int) error {
	if len(tl.old) != 0 {
		return fmt.Errorf("core: bulk load on compacted %s port %d timeline", side, port)
	}
	iv := tl.iv
	for k := 1; k < len(iv); k++ {
		if iv[k].start < iv[k-1].start {
			slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
			break
		}
	}
	for k := range iv {
		if iv[k].end <= iv[k].start {
			return fmt.Errorf("%w: %s port %d at [%d,%d)", ErrEmptyReservation, side, port, iv[k].start, iv[k].end)
		}
		if k > 0 && iv[k-1].end > iv[k].start {
			return fmt.Errorf("%w: %s port %d at [%d,%d)", ErrDoubleBooked, side, port, iv[k].start, iv[k].end)
		}
	}
	return nil
}

// PortSpan is one busy interval on a port timeline as reported by SpansOn —
// the unit of the incremental replanner's context snapshots, which
// ContainsSpans checks against a later table instant for instant.
type PortSpan struct {
	Start, End int64
	Port       int32
	// Out distinguishes the output-side timeline from the input side.
	Out bool
}

// SpansOn appends to dst the busy intervals visible to an intra search
// starting at t over the given input and output timelines: every interval
// ending strictly after t and starting before horizon, in (side, port,
// start) order. Callers pass the port lists sorted so the order is
// canonical.
func (p *PRT) SpansOn(t, horizon int64, ins, outs []int, dst []PortSpan) []PortSpan {
	for _, i := range ins {
		dst = p.in[i].spansOn(t, horizon, int32(i), false, dst)
	}
	for _, j := range outs {
		dst = p.out[j].spansOn(t, horizon, int32(j), true, dst)
	}
	return dst
}

// spansOn appends the timeline's intervals with end > t and start < horizon.
// The archive precedes the live window in start order, so the concatenated
// walk is sorted.
func (tl *timeline) spansOn(t, horizon int64, port int32, out bool, dst []PortSpan) []PortSpan {
	for _, ivs := range tl.halves() {
		for _, v := range ivs[endsAfter(ivs, t):] {
			if v.start >= horizon {
				break
			}
			dst = append(dst, PortSpan{Start: v.start, End: v.end, Port: port, Out: out})
		}
	}
	return dst
}

// ContainsSpans reports whether every span of a snapshot still visible at t
// (End > t) is on the table: its port's timeline holds an interval with the
// same Start and End. Intervals the snapshot does not name are ignored, so
// this is containment, not equality: the plan cache's context certificate
// (DESIGN.md §7) tolerates occupancy added since the snapshot and catches
// occupancy that vanished or moved. The snapshot must be in SpansOn's (side,
// port, start) order: each port's spans are checked in one merge walk.
func (p *PRT) ContainsSpans(spans []PortSpan, t int64) bool {
	for len(spans) > 0 {
		port, out := spans[0].Port, spans[0].Out
		n := 1
		for n < len(spans) && spans[n].Port == port && spans[n].Out == out {
			n++
		}
		tl := &p.in[port]
		if out {
			tl = &p.out[port]
		}
		if !tl.holds(spans[:n], t) {
			return false
		}
		spans = spans[n:]
	}
	return true
}

// holds reports whether the timeline holds every span of group, one port's
// spans in start order, that ends after t. Spans and intervals are sorted by
// start and so by end: the expired spans are a prefix, and the visible ones
// are matched in one walk over the merged archive and live window from the
// first interval at or after the first visible span's start. Starts are
// unique, so passing a span's start without meeting it means it is missing.
func (tl *timeline) holds(group []PortSpan, t int64) bool {
	k := 0
	for k < len(group) && group[k].End <= t {
		k++
	}
	group = group[k:]
	for _, ivs := range tl.halves() {
		if len(group) == 0 {
			return true
		}
		i, _ := slices.BinarySearchFunc(ivs, group[0].Start, byStart)
		for ; i < len(ivs); i++ {
			v, sp := ivs[i], group[0]
			if v.start < sp.Start {
				continue // occupancy the snapshot lacks
			}
			if v.start != sp.Start || v.end != sp.End {
				return false
			}
			if group = group[1:]; len(group) == 0 {
				return true
			}
		}
	}
	return len(group) == 0
}

// Fits reports whether TryReserve(r) would succeed, without changing the
// table: r is non-empty and overlaps no interval on either of its ports.
func (p *PRT) Fits(r Reservation) bool {
	if r.End <= r.Start {
		return false
	}
	_, _, okIn := p.in[r.In].gap(r.Start, r.End)
	_, _, okOut := p.out[r.Out].gap(r.Start, r.End)
	return okIn && okOut
}

// ReleasesAfter appends to dst the end times, strictly after t, of existing
// reservations touching any of the given input and output ports. The intra
// scheduler advances through these instants (Algorithm 1, line 10).
func (p *PRT) ReleasesAfter(t int64, ins, outs []int, dst []int64) []int64 {
	for _, i := range ins {
		dst = p.in[i].endsAfter(t, dst)
	}
	for _, j := range outs {
		dst = p.out[j].endsAfter(t, dst)
	}
	return dst
}
