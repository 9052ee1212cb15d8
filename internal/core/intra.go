package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/obs"
	"sunflow/internal/obs/span"
)

// Order selects the order in which Algorithm 1 considers the flows of a
// Coflow when making reservations. Lemma 1 holds for any ordering; §5.3.1
// shows performance is insensitive to the choice.
type Order int

const (
	// OrderedPort considers flows sorted by (src, dst) port label — the
	// paper's default.
	OrderedPort Order = iota
	// RandomOrder shuffles the flows with the Options seed.
	RandomOrder
	// SortedDemand considers larger flows first.
	SortedDemand
)

// String names the ordering as in §5.3.1.
func (o Order) String() string {
	switch o {
	case OrderedPort:
		return "OrderedPort"
	case RandomOrder:
		return "Random"
	case SortedDemand:
		return "SortedDemand"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Options configures the Sunflow scheduler.
type Options struct {
	// LinkBps is the per-port link bandwidth B in bits per second.
	LinkBps float64
	// Delta is the circuit reconfiguration delay δ in ticks (ns).
	Delta int64
	// Start is the tick scheduling begins at (t0 in Figure 1c).
	Start int64
	// Order is the reservation ordering; see Order.
	Order Order
	// Seed drives RandomOrder shuffling.
	Seed int64
	// Quantum, when positive, rounds each flow's processing time up to a
	// multiple of this many ticks before scheduling — the approximation
	// §6 sketches to prune the circuit-release-event loop and cut scheduler
	// latency. Circuits are held for the rounded time, so CCT can only
	// grow; the ablation benchmarks quantify the trade.
	Quantum int64
	// Obs optionally records planning metrics (intra passes, reservations
	// made, reservations shortened by later commitments). Nil disables
	// instrumentation.
	Obs *obs.Observer
	// Prof optionally records profiling spans ("inter", "intra") on the
	// calling goroutine's span stack. Nil disables profiling at the cost of
	// one nil-check.
	Prof *span.Stack
}

// Validate reports an error for non-physical parameters.
func (o Options) Validate() error {
	if o.LinkBps <= 0 {
		return fmt.Errorf("core: link bandwidth must be positive, got %v", o.LinkBps)
	}
	if o.Delta < 0 {
		return fmt.Errorf("core: reconfiguration delay must be non-negative, got %v", o.Delta)
	}
	if o.Quantum < 0 {
		return fmt.Errorf("core: quantum must be non-negative, got %v", o.Quantum)
	}
	return nil
}

// Schedule is the outcome of scheduling one Coflow: the circuit reservations
// made on its behalf and the resulting timing. Each reservation is one
// circuit establishment, so len(Reservations) is the switching count of
// Figure 5.
type Schedule struct {
	CoflowID int
	// Reservations lists the circuits reserved, in creation order.
	Reservations []Reservation
	// FlowAt is aligned with Reservations: the index in the scheduled
	// Coflow's Flows of the flow each reservation serves, so a caller that
	// keeps per-flow state finds it without a search.
	FlowAt []int32
	// Start is the tick scheduling began at for this Coflow.
	Start int64
	// Finish is the tick the last reservation releases its ports; the CCT
	// relative to Start is Finish-Start.
	Finish int64
}

// FlowFinish returns the time the (src, dst) flow's demand drains: the end of
// its last reservation. ok is false when the schedule reserved nothing for
// the flow.
func (s *Schedule) FlowFinish(src, dst int) (t int64, ok bool) {
	for k := len(s.Reservations) - 1; k >= 0; k-- {
		if r := &s.Reservations[k]; r.In == src && r.Out == dst {
			return r.End, true
		}
	}
	return 0, false
}

// CCT returns the Coflow completion time in seconds measured from the given
// arrival tick.
func (s *Schedule) CCT(arrival int64) float64 { return Seconds(s.Finish - arrival) }

// SwitchingCount returns the number of circuit establishments scheduled.
func (s *Schedule) SwitchingCount() int { return len(s.Reservations) }

// ErrStalled is returned when the scheduler cannot advance — it indicates a
// PRT whose pre-loaded reservations or blackout windows permanently block a
// port pair with remaining demand.
var ErrStalled = errors.New("core: scheduler stalled with unfinished demand")

// demand is one pending flow with its remaining whole bytes b and their
// processing time p = p(b) in ticks (see procTime); k is the flow's index in
// the Coflow's Flows.
type demand struct {
	i, j int
	p    int64
	b    int64
	k    int32
}

// procTime returns p(b) (ProcTicks), rounded up to a multiple of
// opts.Quantum when one is set.
func procTime(b int64, opts *Options) int64 {
	p := ProcTicks(b, opts.LinkBps)
	if q := opts.Quantum; q > 0 && p > 0 {
		p = (p + q - 1) / q * q
	}
	return p
}

// serve debits a reservation of hold l from d and returns the whole bytes it
// carries: every remaining byte when the hold is the full δ+p, otherwise the
// ⌊(l−δ)·B/8e9⌋ its transmit time carries. The remainder's processing time
// is p(b − carried), exactly what a later pass plans from the whole-byte
// remainder.
func (d *demand) serve(l int64, opts *Options) int64 {
	b := d.b
	if l < opts.Delta+d.p {
		b = min(b, carried(l-opts.Delta, opts.LinkBps))
	}
	d.b -= b
	d.p = procTime(d.b, opts)
	return b
}

// IntraCoflow runs the non-preemptive intra-Coflow scheduler of Algorithm 1
// for Coflow c over the shared Port Reservation Table prt, starting at
// opts.Start. Reservations already in the PRT are never preempted; the
// Coflow's circuits are fitted around them (this is how InterCoflow
// prioritizes earlier Coflows). The PRT is updated in place and the Coflow's
// schedule is returned.
//
// Each flow of d whole bytes has processing time p = ⌈8·d·1e9/B⌉ ticks and
// desires one reservation of length δ+p; when a port pair has a later
// commitment closer than that, the reservation is shortened and the
// remainder of the flow is reserved again later — paying another δ, exactly
// as MakeReservation prescribes.
//
// The loop is event-driven: at each release it re-examines only the demands
// touching a freed port (intraFast). The scan-based oracle that re-examines
// every pending demand lives in the package tests; the property tests in
// differential_test.go hold the two to bit-identical schedules.
func IntraCoflow(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(prt.Ports()); err != nil {
		return nil, err
	}
	if opts.Obs == nil && opts.Prof == nil {
		sched, _, err := intraFast(prt, c, opts)
		return sched, err
	}
	// One measurement feeds both the counters and the span, so the span
	// tree's intra totals reconcile with sched.intra_seconds exactly rather
	// than within clock jitter. Clock before span: the span's start stamp
	// then lands no earlier than passStart, so the recorded interval covers
	// its children even when the goroutine is preempted between the two
	// calls.
	passStart := time.Now()
	sp := opts.Prof.Start("intra")
	sched, examined, err := intraFast(prt, c, opts)
	sec := time.Since(passStart).Seconds()
	sp.FinishWith(sec)
	if o := opts.Obs; o != nil {
		o.IntraPasses.Inc()
		o.IntraExamined.Add(int64(examined))
		o.IntraSeconds.Add(sec)
	}
	return sched, err
}

// buildPending converts the Coflow's flows, rounded to whole bytes, into
// scheduler demands, appending to dst, and orders them per opts. A flow
// under half a byte has nothing to carry; any other has p ≥ 1 tick.
func buildPending(dst []demand, c *coflow.Coflow, opts Options) []demand {
	for k, f := range c.Flows {
		if b := int64(math.Round(f.Bytes)); b > 0 {
			dst = append(dst, demand{i: f.Src, j: f.Dst, p: procTime(b, &opts), b: b, k: int32(k)})
		}
	}
	orderDemands(dst, opts)
	return dst
}

// newSchedule allocates the Schedule shell a pass fills in.
func newSchedule(c *coflow.Coflow, opts Options) *Schedule {
	return &Schedule{CoflowID: c.ID, Start: opts.Start, Finish: opts.Start}
}

// portEvent is a circuit release instant on the fast path's event heap: at
// time t the input port in and/or output port out become free. Negative port
// values mean "no port on this side" (events seeded from a single timeline).
type portEvent struct {
	t       int64
	in, out int32
}

// evPush adds e to the min-heap ev (ordered by t alone: all events at one
// instant are drained together before any demand is examined, so tie order
// is irrelevant).
func evPush(ev *[]portEvent, e portEvent) {
	h := append(*ev, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].t <= h[i].t {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*ev = h
}

// evPop removes and returns the earliest event.
func evPop(ev *[]portEvent) portEvent {
	h := *ev
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].t < h[min].t {
			min = l
		}
		if r < n && h[r].t < h[min].t {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	*ev = h
	return top
}

// intraScratch is the reusable working set of one fast-path scheduling pass.
// Each PRT keeps one (PRT.intraScratch), which makes IntraCoflow
// near-zero-alloc per pass in the inter-Coflow driver and the circuit engine,
// which call it once per live Coflow per replan on one reused table.
type intraScratch struct {
	pending []demand
	// in and out are the pass's views of the input and output ports.
	in, out portSide
	flat    []int32
	counts  []int32
	events  []portEvent
	// wake is the ordered wake set: bit di%64 of word di/64 marks demand di
	// for the next round. Draining the words low to high with
	// TrailingZeros64 visits the woken demands in slice order, the order the
	// reference scan examines them in, without a sort. lo and hi bound the
	// words set this round (lo > hi when none is).
	wake   []uint64
	lo, hi int
	// examined counts demand visits this pass (sched.intra_examined).
	examined int
}

// portSide is the fast path's view of one side (inputs or outputs) of the
// switch during a pass. Only the ports the Coflow touches are kept up to
// date; the entries of the others are never read.
//
// free and next make "is port p free at round instant t" a bit test: bit p
// of free records whether p was free at its last refresh, and next[p] the
// start of its first commitment after that refresh instant. While t <
// next[p] and the pass has not reserved p since, nothing on p's timeline
// changed in between, so the bit still holds and next[p] is still p's next
// commitment; once t reaches next[p] the port is refreshed. A free bit can
// thus go stale (a commitment began since), which costs one refresh. A busy
// bit never does: every busy→free transition is the end of an interval, and
// each such end is a release event whose round refreshes the port.
type portSide struct {
	tls []timeline // the table's timelines on this side
	// list[p] holds port p's demands sorted by peer port — a window of
	// intraScratch.flat, finished demands included.
	list [][]int32
	// cur[p] is a monotone finger into p's timeline: at most the index of
	// the first interval starting after the latest refresh instant. Round
	// instants strictly increase, so each refresh seeks it forward from
	// there in amortised O(1) instead of a binary search. A reservation the
	// pass makes at its current instant t lands just before the first start
	// > t, at or after the finger, so the finger stays valid.
	cur  []int
	free []uint64
	next []int64
	// mask and all hold one bitset of words (⌈n/64⌉) words per port: bit q
	// of p's mask marks p's unfinished demand toward peer q, and all keeps
	// the finished ones too, so the number of bits of all below q is that
	// demand's position in list[p].
	mask, all []uint64
	words     int
}

// row returns port p's bitset within mask or all.
func (ps *portSide) row(p int, bitsets []uint64) []uint64 {
	return bitsets[p*ps.words : (p+1)*ps.words]
}

// hasBit reports whether bit q of the bitset b is set.
func hasBit(b []uint64, q int) bool { return b[q>>6]&(1<<(uint(q)&63)) != 0 }

// setBit sets bit q of the bitset b.
func setBit(b []uint64, q int) { b[q>>6] |= 1 << (uint(q) & 63) }

// clearBit clears bit q of the bitset b.
func clearBit(b []uint64, q int) { b[q>>6] &^= 1 << (uint(q) & 63) }

// reset sizes the side for an n-port table of words-word bitsets.
func (ps *portSide) reset(tls []timeline, n, words int) {
	ps.tls, ps.words = tls, words
	if cap(ps.list) < n {
		ps.list, ps.cur, ps.next = make([][]int32, n), make([]int, n), make([]int64, n)
	}
	ps.list, ps.cur, ps.next = ps.list[:n], ps.cur[:n], ps.next[:n]
	ps.free = slices.Grow(ps.free[:0], words)[:words]
	clear(ps.free)
	ps.mask = slices.Grow(ps.mask[:0], n*words)[:n*words]
	ps.all = slices.Grow(ps.all[:0], n*words)[:n*words]
}

// refresh recomputes port p's free bit and next commitment exactly at t and
// reports whether p is free.
func (ps *portSide) refresh(p int, t int64) bool {
	tl := &ps.tls[p]
	c := tl.seek(ps.cur[p], t)
	ps.cur[p] = c
	ps.next[p] = tl.nextStartFrom(c)
	if tl.freeFrom(c, t) {
		setBit(ps.free, p)
		return true
	}
	clearBit(ps.free, p)
	return false
}

// freeAt reports whether port p is free at round instant t, refreshing it
// only when its free bit may have gone stale.
func (ps *portSide) freeAt(p int, t int64) bool {
	return hasBit(ps.free, p) && (t < ps.next[p] || ps.refresh(p, t))
}

// wakeFrom marks for the next round every unfinished demand on port p of ps
// whose peer port is free on the opposite side opp: the demands a release of
// p can unblock. Hits come in ascending peer order, and list[p] is sorted by
// peer, so each hit's rank in p's all bitset indexes its demand.
func (s *intraScratch) wakeFrom(ps, opp *portSide, p int) {
	all, list := ps.row(p, ps.all), ps.list[p]
	rank := 0
	for w, m := range ps.row(p, ps.mask) {
		for hits := m & opp.free[w]; hits != 0; hits &= hits - 1 {
			below := uint64(1)<<uint(bits.TrailingZeros64(hits)) - 1
			di := list[rank+bits.OnesCount64(all[w]&below)]
			setBit(s.wake, int(di))
			s.lo, s.hi = min(s.lo, int(di>>6)), max(s.hi, int(di>>6))
		}
		rank += bits.OnesCount64(all[w])
	}
}

// intraFast is the event-driven implementation of the Algorithm 1 loop.
// A circuit release refreshes the freed port and wakes only its demands
// whose other port is free as well; woken demands are examined in the same
// demand order as the reference scan. A demand that was unschedulable at one
// round — port busy, gap to the next commitment at most δ, blackout — stays
// unschedulable until one of its ports releases or a blackout window ends,
// and within a round ports only become busy, so a demand whose other port is
// busy when its port releases cannot be served that round; waking the rest
// reproduces the reference path's reservation sequence exactly. Port state
// is a bit test (see portSide).
func intraFast(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, int, error) {
	s := prt.intraScratch()
	s.examined = 0

	pending := buildPending(slices.Grow(s.pending[:0], len(c.Flows)), c, opts)
	s.pending = pending
	sched := newSchedule(c, opts)
	if len(pending) == 0 {
		return sched, 0, nil
	}
	sched.Reservations = make([]Reservation, 0, len(pending))
	sched.FlowAt = make([]int32, 0, len(pending))

	// Index live demands by port: count them per port, then carve each
	// port's list out of one flat buffer, so indexing allocates nothing once
	// the buffers have grown.
	n := prt.n
	s.in.reset(prt.in, n, (n+63)/64)
	s.out.reset(prt.out, n, (n+63)/64)
	s.counts = slices.Grow(s.counts[:0], 2*n)[:2*n]
	clear(s.counts)
	remaining := len(pending)
	for di := range pending {
		s.counts[pending[di].i]++
		s.counts[n+pending[di].j]++
	}
	s.flat = slices.Grow(s.flat[:0], 2*remaining)[:2*remaining]
	off := 0
	for p := 0; p < 2*n; p++ {
		ps, q := &s.in, p
		if p >= n {
			ps, q = &s.out, p-n
		}
		ps.list[q] = s.flat[off : off : off+int(s.counts[p])]
		off += int(s.counts[p])
		if s.counts[p] > 0 {
			clear(ps.row(q, ps.mask)) // only touched ports' masks are read
		}
	}
	for di := range pending {
		d := &pending[di]
		s.in.list[d.i] = append(s.in.list[d.i], int32(di))
		s.out.list[d.j] = append(s.out.list[d.j], int32(di))
		setBit(s.in.row(d.i, s.in.mask), d.j)
		setBit(s.out.row(d.j, s.out.mask), d.i)
	}
	if opts.Order != OrderedPort {
		// Only the port order leaves every list sorted by peer already.
		for p := 0; p < n; p++ {
			slices.SortFunc(s.in.list[p], func(a, b int32) int { return cmp.Compare(pending[a].j, pending[b].j) })
			slices.SortFunc(s.out.list[p], func(a, b int32) int { return cmp.Compare(pending[a].i, pending[b].i) })
		}
	}

	// Seed the event heap with existing commitments on the touched ports,
	// pre-grow their timelines for the reservations this pass will insert,
	// and refresh their state at the pass start.
	s.events = slices.Grow(s.events[:0], 2*remaining)
	for p := 0; p < n; p++ {
		s.seedPort(&s.in, p, opts.Start, portEvent{in: int32(p), out: -1})
		s.seedPort(&s.out, p, opts.Start, portEvent{in: -1, out: int32(p)})
	}

	words := (len(pending) + 63) / 64
	if cap(s.wake) < words {
		s.wake = make([]uint64, words)
	}
	s.wake = s.wake[:words]
	clear(s.wake)
	s.lo, s.hi = words, -1

	t := opts.Start
	wakeAll := true // the first round examines every demand
	atBlackoutEnd := false
	for {
		placed := len(sched.Reservations)
		if wakeAll {
			for di := range pending {
				remaining = s.examine(prt, &opts, sched, &pending[di], t, remaining)
			}
		} else {
			for w := s.lo; w <= s.hi; w++ {
				for word := s.wake[w]; word != 0; word &= word - 1 {
					di := w<<6 | bits.TrailingZeros64(word)
					remaining = s.examine(prt, &opts, sched, &pending[di], t, remaining)
				}
				s.wake[w] = 0
			}
			s.lo, s.hi = words, -1
		}
		if remaining == 0 {
			break
		}

		// Advance to the next circuit release or blackout end, as the
		// reference does; then refresh the released ports and wake the
		// demands that instant can unblock. A demand both of whose ports
		// release at this instant is woken by the later of the two.
		blk := prt.nextBlackoutEnd(t)
		next := blk
		if len(s.events) > 0 && s.events[0].t < next {
			next = s.events[0].t
		}
		if next == Forever || stuck(atBlackoutEnd, len(sched.Reservations) > placed, len(s.events) > 0 && s.events[0].t != Forever) {
			return nil, s.examined, fmt.Errorf("%w: %d flows blocked at t=%.6f for %v", ErrStalled, remaining, Seconds(t), c)
		}
		t = next
		// A blackout end frees every port at once: all demands may have
		// become schedulable, so this round examines them all.
		wakeAll = blk == t
		atBlackoutEnd = wakeAll
		for len(s.events) > 0 && s.events[0].t <= t {
			e := evPop(&s.events)
			if e.in >= 0 && s.in.refresh(int(e.in), t) && !wakeAll {
				s.wakeFrom(&s.in, &s.out, int(e.in))
			}
			if e.out >= 0 && s.out.refresh(int(e.out), t) && !wakeAll {
				s.wakeFrom(&s.out, &s.in, int(e.out))
			}
			// A seeded release names one port: queue that port's next one.
			if e.out < 0 {
				s.pushNextEnd(&s.in, int(e.in), t, e)
			} else if e.in < 0 {
				s.pushNextEnd(&s.out, int(e.out), t, e)
			}
		}
	}
	s.events = s.events[:0]
	return sched, s.examined, nil
}

// seedPort prepares touched port p of side ps for a pass starting at start:
// snapshots its peer mask into all, places its cursor and state at start, and
// queues the first end after start of its commitments as a release event
// shaped like ev.
//
// Seeding is lazy: a port has at most one seeded release queued, and popping
// it queues the next (pushNextEnd). The round instants are those of seeding
// every end at once. When the seeded end e of [a, e) pops, no reservation of
// the pass on that port ends after e — the pass placed each at a round
// before e, and one still held after e would overlap [a, e) — so the port's
// next interval end after e is the next commitment end, and it is queued
// before the cursor can pass it. So the heap's minimum, the next round
// instant, is the same, and a port's ends pop at the same rounds.
func (s *intraScratch) seedPort(ps *portSide, p int, start int64, ev portEvent) {
	if len(ps.list[p]) == 0 {
		return
	}
	copy(ps.row(p, ps.all), ps.row(p, ps.mask))
	tl := &ps.tls[p]
	tl.grow(2*len(ps.list[p]) + 2)
	ps.cur[p] = tl.searchAfter(start)
	ps.refresh(p, start)
	s.pushNextEnd(ps, p, start, ev)
}

// pushNextEnd queues, as a release event shaped like ev, the first interval
// end after t on port p of ps, whose cursor a refresh at t has placed.
func (s *intraScratch) pushNextEnd(ps *portSide, p int, t int64, ev portEvent) {
	if end, ok := ps.tls[p].nextEndFrom(ps.cur[p], t); ok {
		ev.t = end
		evPush(&s.events, ev)
	}
}

// examine is one demand visit of the Algorithm 1 loop at round instant t:
// reserve the longest admissible slot if the ports are free, mirroring
// intraScan's inner loop statement for statement. It returns the updated
// count of unfinished demands.
func (s *intraScratch) examine(prt *PRT, opts *Options, sched *Schedule, d *demand, t int64, remaining int) int {
	s.examined++
	if d.p == 0 || !s.in.freeAt(d.i, t) || !s.out.freeAt(d.j, t) ||
		(prt.blackout != nil && prt.blackout.Covers(t)) {
		return remaining
	}
	// Both ports are free with no change since their last refresh, so next
	// holds their next commitments at t.
	tm := min(s.in.next[d.i], s.out.next[d.j])
	if prt.blackout != nil {
		tm = min(tm, prt.blackout.NextStart(t))
	}
	l, ok := slot(tm, t, d, opts)
	if !ok {
		return remaining
	}
	end := place(prt, sched, d, t, l, opts)
	clearBit(s.in.free, d.i)
	clearBit(s.out.free, d.j)
	// The release frees both ports; one event refreshes both. Reservations
	// are longer than δ, so end is strictly after this round.
	evPush(&s.events, portEvent{t: end, in: int32(d.i), out: int32(d.j)})
	if d.p == 0 {
		clearBit(s.in.row(d.i, s.in.mask), d.j)
		clearBit(s.out.row(d.j, s.out.mask), d.i)
		remaining--
	}
	return remaining
}

// slot returns the hold of the reservation demand d gets at round instant t
// given tm, the next commitment on its ports: δ+p, or up to tm when that
// comes first. ok is false when the slot would be at most δ long and carry
// no data: the ports are left free for another Coflow.
func slot(tm, t int64, d *demand, opts *Options) (l int64, ok bool) {
	if tm <= t+opts.Delta {
		return 0, false
	}
	if ld := opts.Delta + d.p; tm >= t+ld {
		return ld, true
	}
	return tm - t, true
}

// place reserves the hold [t, t+l) for demand d on the table and in sched,
// serving d, and returns the release instant t+l.
func place(prt *PRT, sched *Schedule, d *demand, t, l int64, opts *Options) int64 {
	r := Reservation{CoflowID: sched.CoflowID, In: d.i, Out: d.j, Start: t, End: t + l, Setup: opts.Delta, Bytes: d.serve(l, opts)}
	prt.Reserve(r)
	sched.Reservations = append(sched.Reservations, r)
	sched.FlowAt = append(sched.FlowAt, d.k)
	sched.Finish = max(sched.Finish, r.End)
	if o := opts.Obs; o != nil {
		o.Reservations.Inc()
		if d.p > 0 {
			// The slot was cut short by a later commitment: the flow's
			// remainder will pay another δ.
			o.ResShortened.Inc()
		}
	}
	return r.End
}

// stuck reports a pass that can never place its remaining demand: a round at
// a blackout end saw every port released and free of the blackout, placed
// nothing, and leaves no finite release pending. Blackout windows repeat
// with a fixed period, so every later blackout end would replay the same
// empty round; without this check the loop would wait on them forever (a
// port down for good under fair windows).
func stuck(atBlackoutEnd, placed, releasePending bool) bool {
	return atBlackoutEnd && !placed && !releasePending
}

// nextBlackoutEnd returns the end of the first blackout window after t, or
// Forever when no blackout is installed.
func (p *PRT) nextBlackoutEnd(t int64) int64 {
	if p.blackout == nil {
		return Forever
	}
	return p.blackout.NextEnd(t)
}

// orderDemands arranges the pending demands per the configured ordering.
// IntraCoflow validates the Coflow first, so every (i, j) is unique and each
// comparator is a total order: the sorted permutation is the only one, and
// which sort algorithm produces it cannot change a schedule.
func orderDemands(pending []demand, opts Options) {
	switch opts.Order {
	case OrderedPort:
		slices.SortFunc(pending, byPorts)
	case SortedDemand:
		slices.SortFunc(pending, func(a, b demand) int {
			if a.p != b.p {
				return cmp.Compare(b.p, a.p)
			}
			return byPorts(a, b)
		})
	case RandomOrder:
		// Sort first so shuffling is deterministic regardless of input order.
		slices.SortFunc(pending, byPorts)
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(pending), func(a, b int) {
			pending[a], pending[b] = pending[b], pending[a]
		})
	}
}

// byPorts orders demands by (input, output) port.
func byPorts(a, b demand) int {
	if a.i != b.i {
		return cmp.Compare(a.i, b.i)
	}
	return cmp.Compare(a.j, b.j)
}
