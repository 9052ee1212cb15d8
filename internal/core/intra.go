package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
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
	// Delta is the circuit reconfiguration delay δ in seconds.
	Delta float64
	// Start is the time scheduling begins (t0 in Figure 1c).
	Start float64
	// Order is the reservation ordering; see Order.
	Order Order
	// Seed drives RandomOrder shuffling.
	Seed int64
	// Quantum, when positive, rounds each flow's processing time up to a
	// multiple of this many seconds before scheduling — the approximation
	// §6 sketches to prune the circuit-release-event loop and cut scheduler
	// latency. Circuits are held for the rounded time, so CCT can only
	// grow; the ablation benchmarks quantify the trade.
	Quantum float64
	// Reference selects the straightforward scan-based scheduler loop over
	// the event-driven fast path. Both produce bit-identical schedules —
	// the differential property tests enforce it — so Reference exists as
	// the oracle for those tests and as a debugging aid, not as a
	// semantically different mode. See DESIGN.md, "Scheduler complexity &
	// performance".
	Reference bool
	// Obs optionally records planning metrics (intra passes, reservations
	// made, reservations shortened by later commitments). Nil disables
	// instrumentation.
	Obs *obs.Observer
	// Prof optionally records profiling spans ("inter", "intra",
	// "prt.compact") on the calling goroutine's span stack. Nil disables
	// profiling at the cost of one nil-check.
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
	// Start is the time scheduling began for this Coflow.
	Start float64
	// Finish is the time the last reservation releases its ports; the CCT
	// relative to Start is Finish-Start.
	Finish float64
	// FlowFinish maps each (src, dst) flow to the time its demand drains.
	FlowFinish map[[2]int]float64
}

// CCT returns the Coflow completion time measured from the given arrival.
func (s *Schedule) CCT(arrival float64) float64 { return s.Finish - arrival }

// SwitchingCount returns the number of circuit establishments scheduled.
func (s *Schedule) SwitchingCount() int { return len(s.Reservations) }

// ErrStalled is returned when the scheduler cannot advance — it indicates a
// PRT whose pre-loaded reservations or blackout windows permanently block a
// port pair with remaining demand.
var ErrStalled = errors.New("core: scheduler stalled with unfinished demand")

// demand is one pending flow with its remaining processing time.
type demand struct {
	i, j int
	p    float64
}

// releaseHeap is a min-heap of circuit release times (reference path).
type releaseHeap []float64

func (h releaseHeap) Len() int            { return len(h) }
func (h releaseHeap) Less(a, b int) bool  { return h[a] < h[b] }
func (h releaseHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *releaseHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *releaseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// covered reports whether the heap already holds an entry u within
// [t-timeEps, t]. The scheduler's round at u drains every release up to
// u+timeEps, t included, so pushing t again would be redundant. The check is
// deliberately one-sided: a new release below an existing entry must still
// be pushed — the round cursor advances to the minimum of an eps-cluster,
// and dropping a smaller value would shift round times by float residue.
func (h releaseHeap) covered(t float64) bool {
	for _, v := range h {
		if t-timeEps <= v && v <= t {
			return true
		}
	}
	return false
}

// IntraCoflow runs the non-preemptive intra-Coflow scheduler of Algorithm 1
// for Coflow c over the shared Port Reservation Table prt, starting at
// opts.Start. Reservations already in the PRT are never preempted; the
// Coflow's circuits are fitted around them (this is how InterCoflow
// prioritizes earlier Coflows). The PRT is updated in place and the Coflow's
// schedule is returned.
//
// Each flow with processing time p(i,j) = d(i,j)·8/B desires one reservation
// of length δ+p; when a port pair has a later commitment closer than that,
// the reservation is shortened and the remainder of the flow is reserved
// again later — paying another δ, exactly as MakeReservation prescribes.
//
// Two interchangeable loop implementations exist: the event-driven fast path
// (default) re-examines only the demands touching a freed port at each
// release, and the scan-based reference path (Options.Reference) re-examines
// every pending demand. They produce bit-identical schedules; the property
// tests in differential_test.go hold them to that.
func IntraCoflow(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(prt.Ports()); err != nil {
		return nil, err
	}
	if o := opts.Obs; o != nil || opts.Prof != nil {
		// One measurement feeds both the counters and the span, so the
		// span tree's intra totals reconcile with sched.intra_seconds
		// exactly rather than within clock jitter.
		// Clock before span: the span's start stamp then lands no earlier
		// than passStart, so the recorded interval covers its children even
		// when the goroutine is preempted between the two calls.
		passStart := time.Now()
		sp := opts.Prof.Start("intra")
		if opts.Reference {
			sp.Attr("planner", "ref")
		} else {
			sp.Attr("planner", "fast")
		}
		defer func() {
			sec := time.Since(passStart).Seconds()
			sp.FinishWith(sec)
			if o == nil {
				return
			}
			o.IntraPasses.Inc()
			o.IntraSeconds.Add(sec)
			if opts.Reference {
				o.IntraRefSeconds.Add(sec)
			} else {
				o.IntraFastSeconds.Add(sec)
			}
		}()
	}
	if opts.Reference {
		return intraScan(prt, c, opts)
	}
	return intraFast(prt, c, opts)
}

// buildPending converts the Coflow's positive-demand flows into scheduler
// demands, appending to dst, and orders them per opts.
func buildPending(dst []demand, c *coflow.Coflow, opts Options) []demand {
	for _, f := range c.Flows {
		if f.Bytes <= 0 {
			continue
		}
		p := f.ProcTime(opts.LinkBps)
		if opts.Quantum > 0 {
			p = math.Ceil(p/opts.Quantum) * opts.Quantum
		}
		dst = append(dst, demand{i: f.Src, j: f.Dst, p: p})
	}
	orderDemands(dst, opts)
	return dst
}

// newSchedule allocates the Schedule shell both paths fill in.
func newSchedule(c *coflow.Coflow, opts Options, nPending int) *Schedule {
	return &Schedule{
		CoflowID:   c.ID,
		Start:      opts.Start,
		Finish:     opts.Start,
		FlowFinish: make(map[[2]int]float64, nPending),
	}
}

// intraScan is the reference implementation of the Algorithm 1 loop: every
// round re-examines all pending demands in order. O(F) per round, kept as
// the differential-testing oracle for the event-driven path.
func intraScan(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, error) {
	pending := buildPending(make([]demand, 0, len(c.Flows)), c, opts)
	sched := newSchedule(c, opts, len(pending))
	if len(pending) == 0 {
		return sched, nil
	}

	// Seed the release-time heap with existing commitments on the ports this
	// Coflow touches, so the time cursor can advance past them.
	ins, outs := portSets(pending)
	releases := releaseHeap(prt.ReleasesAfter(opts.Start, ins, outs, nil))
	heap.Init(&releases)

	t := opts.Start
	for len(pending) > 0 {
		for idx := range pending {
			d := &pending[idx]
			if d.p <= timeEps || !prt.FreeAt(d.i, d.j, t) {
				continue
			}
			tm := prt.NextCommitment(d.i, d.j, t)
			lm := tm - t
			ld := opts.Delta + d.p
			// A slot shorter than δ (or exactly δ, which would carry no
			// data) is useless: leave the ports free for another Coflow.
			if lm <= opts.Delta+timeEps {
				continue
			}
			l := math.Min(lm, ld)
			r := Reservation{
				CoflowID: c.ID,
				In:       d.i,
				Out:      d.j,
				Start:    t,
				End:      t + l,
				Setup:    opts.Delta,
				Bytes:    (l - opts.Delta) * opts.LinkBps / 8,
			}
			prt.Reserve(r)
			sched.Reservations = append(sched.Reservations, r)
			if o := opts.Obs; o != nil {
				o.Reservations.Inc()
				if l < ld-timeEps {
					// The slot was cut short by a later commitment: the
					// flow's remainder will pay another δ.
					o.ResShortened.Inc()
				}
			}
			if !releases.covered(r.End) {
				heap.Push(&releases, r.End)
			}
			d.p -= l - opts.Delta // remaining demand: ld - l
			if d.p <= timeEps {
				d.p = 0
				sched.FlowFinish[[2]int{d.i, d.j}] = r.End
			}
			if r.End > sched.Finish {
				sched.Finish = r.End
			}
		}

		// Drop satisfied demands; residues at the arithmetic noise floor
		// count as satisfied, matching the skip threshold above, or they
		// would linger unschedulable forever.
		live := pending[:0]
		for _, d := range pending {
			if d.p > timeEps {
				live = append(live, d)
			}
		}
		pending = live
		if len(pending) == 0 {
			break
		}

		// Advance to the next circuit release time (Algorithm 1, line 10);
		// the end of a blackout window also frees ports. Entries at or
		// before the cursor belong to rounds already run: drain them all in
		// one pass, then peek the first live one.
		for releases.Len() > 0 && releases[0] <= t+timeEps {
			heap.Pop(&releases)
		}
		next := prt.nextBlackoutEnd(t)
		if releases.Len() > 0 && releases[0] < next {
			next = releases[0]
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("%w: %d flows blocked at t=%.6f for %v", ErrStalled, len(pending), t, c)
		}
		t = next
	}
	return sched, nil
}

// portEvent is a circuit release instant on the fast path's event heap: at
// time t the input port in and/or output port out become free. Negative port
// values mean "no port on this side" (events seeded from a single timeline).
type portEvent struct {
	t       float64
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
	// byIn[p] (byOut[p]) lists the unfinished demands on input (output) port
	// p in ascending order: disjoint windows of flat, sized by counts.
	byIn, byOut [][]int32
	flat        []int32
	counts      []int32
	events      []portEvent
	// wake is the ordered wake set: bit di%64 of word di/64 marks demand di
	// for the next round. Draining the words low to high with
	// TrailingZeros64 visits the woken demands in slice order, the order the
	// reference scan examines them in, without a sort. lo and hi bound the
	// words set this round (lo > hi when none is).
	wake   []uint64
	lo, hi int
	cur    cursors
	ends   []float64
}

// wakeOn marks every unfinished demand in list for the next round and
// returns list with the finished ones dropped, so later releases on the same
// port do not walk them again. The list is in ascending demand order, so its
// first and last survivors bound the words touched.
func (s *intraScratch) wakeOn(list []int32, pending []demand) []int32 {
	live := list[:0]
	for _, di := range list {
		if pending[di].p > timeEps {
			s.wake[di>>6] |= 1 << (uint(di) & 63)
			live = append(live, di)
		}
	}
	if n := len(live); n > 0 {
		s.lo, s.hi = min(s.lo, int(live[0]>>6)), max(s.hi, int(live[n-1]>>6))
	}
	return live
}

// intraFast is the event-driven implementation of the Algorithm 1 loop.
// Pending demands are indexed by input and output port; a circuit release
// wakes only the demands touching the freed ports, and woken demands are
// examined in the same demand order as the reference scan. A demand that was
// unschedulable at one round — port busy, gap to the next commitment at most
// δ, blackout — stays unschedulable until one of its ports releases or a
// blackout window ends, so waking that (super)set reproduces the reference
// path's reservation sequence exactly. Round instants strictly increase, so
// the port queries run through monotone cursors (see cursors).
func intraFast(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, error) {
	s := prt.intraScratch()

	pending := buildPending(slices.Grow(s.pending[:0], len(c.Flows)), c, opts)
	s.pending = pending
	sched := newSchedule(c, opts, len(pending))
	if len(pending) == 0 {
		return sched, nil
	}
	sched.Reservations = make([]Reservation, 0, len(pending))

	// Index live demands by port: count them per port, then carve each
	// port's list out of one flat buffer, so indexing allocates nothing once
	// the buffers have grown. A demand already at the noise floor is dropped
	// up front — the reference scan never reserves for it and records no
	// finish — so remaining counts exactly the schedulable work.
	n := prt.n
	if cap(s.byIn) < n {
		s.byIn, s.byOut = make([][]int32, n), make([][]int32, n)
		s.cur.in, s.cur.out = make([]int, n), make([]int, n)
	}
	byIn, byOut := s.byIn[:n], s.byOut[:n]
	s.counts = slices.Grow(s.counts[:0], 2*n)[:2*n]
	clear(s.counts)
	remaining := 0
	for di := range pending {
		if pending[di].p > timeEps {
			remaining++
			s.counts[pending[di].i]++
			s.counts[n+pending[di].j]++
		}
	}
	if remaining == 0 {
		return sched, nil
	}
	s.flat = slices.Grow(s.flat[:0], 2*remaining)[:2*remaining]
	off := 0
	for p := 0; p < 2*n; p++ {
		list := s.flat[off : off : off+int(s.counts[p])]
		off += int(s.counts[p])
		if p < n {
			byIn[p] = list
		} else {
			byOut[p-n] = list
		}
	}
	for di := range pending {
		if d := &pending[di]; d.p > timeEps {
			byIn[d.i] = append(byIn[d.i], int32(di))
			byOut[d.j] = append(byOut[d.j], int32(di))
		}
	}

	// Seed the event heap with existing commitments on the touched ports,
	// pre-grow their timelines and the heap for the reservations this pass
	// will insert, and place the ports' cursors at the pass start; the
	// cursors of untouched ports are never read.
	s.events = slices.Grow(s.events[:0], 2*remaining)
	for p := 0; p < n; p++ {
		if len(byIn[p]) > 0 {
			tl := &prt.in[p]
			tl.grow(2*len(byIn[p]) + 2)
			s.cur.in[p] = tl.searchAfter(opts.Start)
			s.ends = tl.endsAfter(opts.Start, s.ends[:0])
			for _, e := range s.ends {
				evPush(&s.events, portEvent{t: e, in: int32(p), out: -1})
			}
		}
		if len(byOut[p]) > 0 {
			tl := &prt.out[p]
			tl.grow(2*len(byOut[p]) + 2)
			s.cur.out[p] = tl.searchAfter(opts.Start)
			s.ends = tl.endsAfter(opts.Start, s.ends[:0])
			for _, e := range s.ends {
				evPush(&s.events, portEvent{t: e, in: -1, out: int32(p)})
			}
		}
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
	for {
		if wakeAll {
			for di := range pending {
				remaining = s.examine(prt, c, &opts, sched, &pending[di], t, remaining)
			}
		} else {
			for w := s.lo; w <= s.hi; w++ {
				for word := s.wake[w]; word != 0; word &= word - 1 {
					di := w<<6 | bits.TrailingZeros64(word)
					remaining = s.examine(prt, c, &opts, sched, &pending[di], t, remaining)
				}
				s.wake[w] = 0
			}
			s.lo, s.hi = words, -1
		}
		if remaining == 0 {
			break
		}

		// Advance to the next circuit release or blackout end, as the
		// reference does; then wake the demands that instant can unblock.
		blk := prt.nextBlackoutEnd(t)
		next := blk
		if len(s.events) > 0 && s.events[0].t < next {
			next = s.events[0].t
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("%w: %d flows blocked at t=%.6f for %v", ErrStalled, remaining, t, c)
		}
		t = next
		// A blackout end frees every port at once: all demands may have
		// become schedulable, so this round examines them all.
		wakeAll = blk <= t+timeEps
		for len(s.events) > 0 && s.events[0].t <= t+timeEps {
			e := evPop(&s.events)
			if wakeAll {
				continue
			}
			if e.in >= 0 {
				byIn[e.in] = s.wakeOn(byIn[e.in], pending)
			}
			if e.out >= 0 {
				byOut[e.out] = s.wakeOn(byOut[e.out], pending)
			}
		}
	}
	s.events = s.events[:0]
	return sched, nil
}

// examine is one demand visit of the Algorithm 1 loop at round instant t:
// reserve the longest admissible slot if the ports are free, mirroring
// intraScan's inner loop statement for statement. It returns the updated
// count of unfinished demands.
func (s *intraScratch) examine(prt *PRT, c *coflow.Coflow, opts *Options, sched *Schedule, d *demand, t float64, remaining int) int {
	if d.p <= timeEps || !prt.freeAtFrom(&s.cur, d.i, d.j, t) {
		return remaining
	}
	tm := prt.nextCommitmentFrom(&s.cur, d.i, d.j, t)
	lm := tm - t
	ld := opts.Delta + d.p
	// A slot shorter than δ (or exactly δ, which would carry no data) is
	// useless: leave the ports free for another Coflow.
	if lm <= opts.Delta+timeEps {
		return remaining
	}
	l := math.Min(lm, ld)
	r := Reservation{
		CoflowID: c.ID,
		In:       d.i,
		Out:      d.j,
		Start:    t,
		End:      t + l,
		Setup:    opts.Delta,
		Bytes:    (l - opts.Delta) * opts.LinkBps / 8,
	}
	prt.Reserve(r)
	sched.Reservations = append(sched.Reservations, r)
	if o := opts.Obs; o != nil {
		o.Reservations.Inc()
		if l < ld-timeEps {
			// The slot was cut short by a later commitment: the flow's
			// remainder will pay another δ.
			o.ResShortened.Inc()
		}
	}
	// The release frees both ports; one event wakes the demands on either
	// side. Reservations carry data (l > δ+eps), so r.End is strictly after
	// this round and per-port release instants never collide.
	evPush(&s.events, portEvent{t: r.End, in: int32(d.i), out: int32(d.j)})
	d.p -= l - opts.Delta // remaining demand: ld - l
	if d.p <= timeEps {
		d.p = 0
		sched.FlowFinish[[2]int{d.i, d.j}] = r.End
		remaining--
	}
	if r.End > sched.Finish {
		sched.Finish = r.End
	}
	return remaining
}

// nextBlackoutEnd returns the end of the first blackout window after t, or
// +Inf when no blackout is installed.
func (p *PRT) nextBlackoutEnd(t float64) float64 {
	if p.blackout == nil {
		return math.Inf(1)
	}
	return p.blackout.NextEnd(t)
}

// orderDemands arranges the pending demands per the configured ordering.
func orderDemands(pending []demand, opts Options) {
	switch opts.Order {
	case OrderedPort:
		sort.Slice(pending, func(a, b int) bool {
			if pending[a].i != pending[b].i {
				return pending[a].i < pending[b].i
			}
			return pending[a].j < pending[b].j
		})
	case SortedDemand:
		sort.Slice(pending, func(a, b int) bool {
			if pending[a].p != pending[b].p {
				return pending[a].p > pending[b].p
			}
			if pending[a].i != pending[b].i {
				return pending[a].i < pending[b].i
			}
			return pending[a].j < pending[b].j
		})
	case RandomOrder:
		// Sort first so shuffling is deterministic regardless of input order.
		sort.Slice(pending, func(a, b int) bool {
			if pending[a].i != pending[b].i {
				return pending[a].i < pending[b].i
			}
			return pending[a].j < pending[b].j
		})
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(pending), func(a, b int) {
			pending[a], pending[b] = pending[b], pending[a]
		})
	}
}

// portSets returns the distinct input and output ports of the demands.
func portSets(pending []demand) (ins, outs []int) {
	inSet := make(map[int]bool)
	outSet := make(map[int]bool)
	for _, d := range pending {
		inSet[d.i] = true
		outSet[d.j] = true
	}
	for i := range inSet {
		ins = append(ins, i)
	}
	for j := range outSet {
		outs = append(outs, j)
	}
	sort.Ints(ins)
	sort.Ints(outs)
	return ins, outs
}
