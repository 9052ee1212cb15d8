package circuit

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
)

// planCacheEntry records one Coflow's IntraCoflow outcome and the context it
// was computed in. A later pass replays the part of the schedule that has not
// started yet instead of re-running IntraCoflow, when the certificate in
// reusable holds (DESIGN.md §7). A replay carries the entry forward: its flows
// become the pass's input and its reservations the replayed suffix, while the
// horizon and maxEnd stay those of the original search, and its context
// drops the spans that ended by the pass start.
type planCacheEntry struct {
	// lc is the Coflow the entry belongs to. The entry is looked up through
	// lc.cacheAt and recognised by this pointer, so a Coflow re-admitted under
	// a removed one's id never reads the removed one's schedule.
	lc *Live
	// flows is the IntraCoflow input the reservations continue, in (Src, Dst)
	// order: the original input minus the bytes of the reservations that
	// started before the last replay. Compared exactly — any changed byte
	// re-runs the scheduler, keeping reuse bit-identical by construction.
	flows []coflow.Flow
	// keys is aligned with flows: the position of each flow in lc.Keys.
	keys []int32
	// res is the cached IntraCoflow output not yet started at the last
	// replay, in emission (non-decreasing Start) order; owned by the entry
	// (the plan holds copies).
	res []core.Reservation
	// flowAt is aligned with res: the position of each reservation's flow in
	// lc.Keys, carried into Engine.flowAt on replay. Keys does not change
	// while the cache is in use (only a fault strands flows, and a fault view
	// drops the cache).
	flowAt []int32
	// maxEnd is the latest End of the original output (math.MinInt64 when
	// empty).
	maxEnd int64
	// ctx is the port context the schedule was computed against: the busy
	// intervals visible on the input flows' ports when IntraCoflow ran,
	// snapshotted just before the run and trimmed to horizon. A replay drops
	// the spans that ended by its pass start: pass starts never decrease, so
	// no later certificate can see them.
	ctx []core.PortSpan
	// horizon bounds the table range the cached search could have consulted:
	// maxEnd + δ. Every round of the search runs at an instant t < maxEnd,
	// and a commitment at or after t+δ < maxEnd+δ can neither make its slot
	// too short nor cut a reservation that ends by maxEnd.
	horizon int64
}

// replanScratch pools the per-pass buffers of replanOnce, making a
// steady-state replan allocation-free outside IntraCoflow itself.
type replanScratch struct {
	// tmps holds reusable remainder-Coflow headers, one per live Coflow; the
	// header doubles as the IntraCoflow input when the remainders coincide.
	tmps []*coflow.Coflow
	// ranked is the pass's scheduling order, filled by order.
	ranked []ranked
	// sched is the remainder-with-exclusions scratch Coflow.
	sched *coflow.Coflow
	// started sums, per position in the Coflow's Keys, the bytes of the
	// reservations a continuation skips (see continues). It is all zero
	// between checks, and at least as long as any Keys checked so far.
	started []int64
	// nextCache accumulates this pass's cache entries.
	nextCache []planCacheEntry
	// spans is the pre-run port-context snapshot buffer; ins and outs hold
	// the sorted unique ports of the flows being certified or snapshotted.
	spans     []core.PortSpan
	ins, outs []int
	// keyAt holds the positions in the Coflow's Keys of a fresh schedule's
	// input flows, or of the input a continuation check just matched.
	keyAt []int32
}

// replanOnce is one scheduling pass: in-flight reservations are kept
// (non-preemption), everything else is rescheduled with IntraCoflow in
// priority order against the remaining demand. It returns the Coflow that
// could not be placed alongside the error.
func (e *Engine) replanOnce(now int64) (id int, err error) {
	o := e.cfg.Obs
	if o != nil || e.cfg.Prof != nil {
		// One measurement feeds the counters and the span, so the span tree's
		// sched.pass totals sum to sched.seconds exactly. A stalled pass closes
		// its span but leaves the pass counters untouched — the retry after
		// quarantine counts. Clock before span: the span's start stamp then
		// lands no earlier than passStart.
		passStart := time.Now()
		psp := e.cfg.Prof.Start("sched.pass")
		defer func() {
			if err != nil {
				psp.Attr("outcome", "stalled").Finish()
				return
			}
			d := time.Since(passStart).Seconds()
			psp.FinishWith(d)
			if o == nil {
				return
			}
			o.SchedPasses.Inc()
			o.SchedSeconds.Add(d)
			o.SchedPassTime.Observe(d)
			o.QueueDepth.Set(int64(len(e.plan)))
		}()
	}
	// Keep only circuits already established and still holding their ports.
	// The filter runs in place, on the plan and its flow positions together:
	// locked is a subsequence of plan and the pass rebuilds plan from it. A
	// circuit that ended since the last pass has been debited in full and
	// leaves the plan here; one never established has its demand replanned.
	locked, lockedAt := e.plan[:0], e.flowAt[:0]
	for i, r := range e.plan {
		if r.Start < now && r.End > now {
			locked = append(locked, r)
			lockedAt = append(lockedAt, e.flowAt[i])
		}
	}

	prt := e.prt
	prt.Reset()
	if e.cfg.Fair != nil {
		prt.SetBlackout(*e.cfg.Fair)
	}
	if e.faults != nil {
		locked, lockedAt = e.repairTable(locked, lockedAt, now)
	}
	e.plan, e.flowAt = locked, lockedAt

	sc := &e.scratch
	ordered := e.order()
	for i := range locked {
		r := &locked[i]
		lc := e.live[r.CoflowID]
		if lc == nil {
			continue
		}
		lc.lockedEnd = max(lc.lockedEnd, r.End)
		ki := lockedAt[i]
		if ki < 0 {
			continue // the flow was stranded; nothing schedules it
		}
		if len(lc.excl) == 0 {
			lc.excl = slices.Grow(lc.excl, len(lc.Keys))[:len(lc.Keys)]
			clear(lc.excl)
		}
		lc.excl[ki] += r.Bytes - r.Delivered(now, e.rate(r))
	}

	reuse := e.incremental && e.faults == nil
	if reuse {
		sc.nextCache = sc.nextCache[:0]
	}
	id, err = e.schedulePass(now, ordered, reuse)
	if err == nil && reuse {
		// Swap the rebuilt cache in: it holds an entry for each live Coflow, at
		// the Coflow's cacheAt, and none for the Coflows that left the fabric.
		// (A retired Coflow's still-future occupancy vanishing from the table
		// is caught by the context containment of any entry placed around
		// it.) Stale entries are zeroed so the old backing array does not pin
		// retired schedules for the GC.
		old := e.cache
		e.cache = sc.nextCache
		for i := range old {
			old[i] = planCacheEntry{}
		}
		sc.nextCache = old[:0]
	}
	return id, err
}

// ranked is one live Coflow in a pass's scheduling order, with its sort key
// and its remainder header.
type ranked struct {
	prio    int
	key     float64
	arrival int64
	id      int
	lc      *Live
	tmp     *coflow.Coflow
}

// order builds every live Coflow's remainder header from Rem, clears its
// per-pass locked state, and returns the live set sorted on the total order
// (−Priority, key, Arrival, ID). A KeyPolicy orders by (Key, Arrival, ID),
// so this equals its sort followed by a stable sort by descending Priority;
// keys are cached on the Live until the next Rem write. Any other policy's
// key is the Coflow's position in the policy's own Sort. The headers are
// pooled; each also serves as the IntraCoflow input when its Coflow has no
// locked exclusions.
func (e *Engine) order() []ranked {
	sc := &e.scratch
	for len(sc.tmps) < len(e.live) {
		sc.tmps = append(sc.tmps, &coflow.Coflow{})
	}
	kp, keyed := e.policy.(core.KeyPolicy)
	rs := sc.ranked[:0]
	keys := int64(0)
	for _, lc := range e.live {
		tmp := remainderFrom(sc.tmps[len(rs)], lc, nil)
		lc.lockedEnd, lc.excl = math.MinInt64, lc.excl[:0]
		if keyed && !lc.keyOK {
			lc.key, lc.keyOK = kp.Key(tmp), true
			keys++
		}
		rs = append(rs, ranked{lc.Priority, lc.key, lc.Arrival, lc.ID, lc, tmp})
	}
	if !keyed {
		for i, tmp := range e.policy.Sort(sc.tmps[:len(rs)]) {
			lc := e.live[tmp.ID]
			rs[i] = ranked{lc.Priority, float64(i), lc.Arrival, lc.ID, lc, tmp}
		}
	}
	if o := e.cfg.Obs; o != nil {
		o.OrderKeys.Add(keys)
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.prio, a.prio), cmp.Compare(a.key, b.key),
			cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.id, b.id))
	})
	// Entries past the live count would pin retired Coflows for the GC.
	clear(sc.ranked[min(len(rs), len(sc.ranked)):])
	sc.ranked = rs
	return rs
}

// schedulePass rebuilds the plan for one scheduling pass: every live Coflow,
// in priority order, either replays the unstarted part of its cached schedule
// (reuse mode, when reusable certifies it bit-identical to what IntraCoflow
// would produce — DESIGN.md §7) or runs IntraCoflow against the table built
// so far. The caller has Reset the table (with blackout and fault blocks
// applied) and cut the plan down to the locked circuits, which are seeded
// here by Preload on fault-free passes (a faulted pass's repair seeded them
// already).
func (e *Engine) schedulePass(now int64, ordered []ranked, reuse bool) (int, error) {
	prt := e.prt
	sc := &e.scratch
	skips, continued := int64(0), int64(0)
	if e.faults == nil {
		// Locked circuits held their ports in the last plan, so they cannot
		// conflict: a failure here is a bug.
		if err := prt.Preload(e.plan); err != nil {
			panic(err)
		}
	}
	for _, it := range ordered {
		tmp, lc := it.tmp, it.lc
		toSchedule := e.schedInput(tmp, lc)
		start := max(now, lc.Arrival)
		var ce *planCacheEntry
		if k := lc.cacheAt; reuse && k < len(e.cache) && e.cache[k].lc == lc {
			ce = &e.cache[k]
		}
		var finish int64
		if k, ok := e.reusable(ce, toSchedule.Flows, start); ok {
			if k > 0 {
				// Carry the entry forward in place: the input it now
				// continues, and the reservations not yet started.
				ce.flows = append(ce.flows[:0], toSchedule.Flows...)
				ce.keys = append(ce.keys[:0], sc.keyAt...) // left by continues
				ce.res, ce.flowAt = ce.res[k:], ce.flowAt[k:]
				continued++
			}
			ce.ctx = slices.DeleteFunc(ce.ctx, func(sp core.PortSpan) bool { return sp.End <= start })
			for i := range ce.res {
				prt.Reserve(ce.res[i]) // reusable checked that each fits
			}
			// Only the planned finish needs refreshing — its base is the pass
			// start, which moved since the cached pass. A started reservation
			// ending after the pass start is locked, so lockedEnd covers it.
			finish = max(start, ce.maxEnd)
			e.plan = append(e.plan, ce.res...)
			e.flowAt = append(e.flowAt, ce.flowAt...)
			lc.cacheAt = len(sc.nextCache)
			sc.nextCache = append(sc.nextCache, *ce)
			skips++
		} else {
			// Dirty: snapshot the port context the search is about to see,
			// then run the scheduler. The snapshot must precede the run —
			// IntraCoflow's own placements are its output, not its input.
			if reuse {
				sc.ins, sc.outs = flowPorts(toSchedule.Flows, sc.ins, sc.outs)
				sc.spans = prt.SpansOn(start, core.Forever, sc.ins, sc.outs, sc.spans[:0])
			}
			sched, err := core.IntraCoflow(prt, toSchedule, core.Options{
				LinkBps: e.cfg.LinkBps,
				Delta:   e.cfg.Delta,
				Start:   start,
				Order:   e.cfg.Order,
				Seed:    e.cfg.Seed,
				Obs:     e.cfg.Obs,
				Prof:    e.cfg.Prof,
			})
			if err != nil {
				return tmp.ID, err
			}
			res, at := sched.Reservations, sched.FlowAt
			finish = sched.Finish
			// The schedule names each reservation's input flow; the input is
			// Keys in order less the flows with nothing left to plan, so one
			// walk turns those into Keys positions, which replays and locks
			// carry from here on.
			sc.keyAt = keyPositions(lc, toSchedule.Flows, sc.keyAt[:0])
			for i, k := range at {
				at[i] = sc.keyAt[k]
			}
			e.plan = append(e.plan, res...)
			e.flowAt = append(e.flowAt, at...)
			if reuse {
				ne := newCacheEntry(lc, toSchedule.Flows, res)
				ne.keys, ne.flowAt = slices.Clone(sc.keyAt), at
				ne.horizon = ne.maxEnd + e.cfg.Delta
				// The snapshot below the horizon, in a slice of its own size: the
				// entry keeps it for the Coflow's lifetime.
				visible := slices.DeleteFunc(sc.spans, func(sp core.PortSpan) bool { return sp.Start >= ne.horizon })
				ne.ctx = slices.Clone(visible)
				lc.cacheAt = len(sc.nextCache)
				sc.nextCache = append(sc.nextCache, ne)
			}
		}
		lc.Finish = max(finish, lc.lockedEnd)
	}
	if o := e.cfg.Obs; o != nil {
		o.IntraSkipped.Add(skips)
		o.IntraContinued.Add(continued)
	}
	return 0, nil
}

// dropCache empties the plan cache, zeroing the entries so the backing array
// does not pin retired schedules.
func (e *Engine) dropCache() {
	for i := range e.cache {
		e.cache[i] = planCacheEntry{}
	}
	e.cache = e.cache[:0]
}

// reusable decides whether the cached entry (nil for none) can stand in for
// an IntraCoflow run on input from start this pass. The reservations starting
// before start form a prefix P of the entry's; the rest, Q, is replayed, and
// k = |P| is returned. The certificate:
//
//  1. the input is exactly the entry's flows minus P's bytes (continues);
//  2. every context span still visible at start is on the table
//     (containment: added occupancy is allowed, vanished or moved is not);
//  3. every reservation of Q fits the table as it stands;
//  4. P is empty, or the demand order is OrderedPort — SortedDemand re-sorts
//     by the remaining demand and RandomOrder reshuffles the remaining
//     subset, so either can reorder the demands P leaves.
//
// A search from start over this table then places exactly Q: it sees the
// demand state and visible table the cached search saw at its rounds from
// start on, nothing can be placed between the last round before start and
// start itself, and an added interval that overlaps none of the cached
// reservations changes no round's decision. DESIGN.md §7 has the argument.
func (e *Engine) reusable(ce *planCacheEntry, input []coflow.Flow, start int64) (k int, ok bool) {
	if ce == nil {
		return 0, false
	}
	k = sort.Search(len(ce.res), func(i int) bool { return ce.res[i].Start >= start })
	if k > 0 && e.cfg.Order != core.OrderedPort {
		return 0, false
	}
	if !e.continues(ce, k, input) || !e.prt.ContainsSpans(ce.ctx, start) {
		return 0, false
	}
	for i := k; i < len(ce.res); i++ {
		if !e.prt.Fits(ce.res[i]) {
			return 0, false
		}
	}
	return k, true
}

// continues reports whether input is exactly the entry's flows minus the
// bytes its first k reservations (the started ones) carry, flow by flow, with
// drained flows dropped. Both flow lists are in (Src, Dst) order and hold
// whole bytes. The started bytes are summed by Keys position, which the
// reservations and the entry's flows both carry, so a check costs the
// entry's flows plus k, whatever the length of Keys. When k > 0 it leaves
// the Keys positions of the input's flows in e.scratch.keyAt, for the carry.
func (e *Engine) continues(ce *planCacheEntry, k int, input []coflow.Flow) bool {
	if k == 0 {
		return slices.Equal(ce.flows, input) // Flow is comparable: bit-exact
	}
	sum := e.scratch.started
	if n := len(ce.lc.Keys); len(sum) < n {
		sum = make([]int64, n)
		e.scratch.started = sum
	}
	started := ce.flowAt[:k]
	for i, ki := range started {
		sum[ki] += ce.res[i].Bytes
	}
	keys := e.scratch.keyAt[:0]
	ok := true
	for fi, f := range ce.flows {
		b := int64(f.Bytes) - sum[ce.keys[fi]]
		if b == 0 {
			continue
		}
		j := len(keys)
		if b < 0 || j == len(input) || input[j] != (coflow.Flow{Src: f.Src, Dst: f.Dst, Bytes: float64(b)}) {
			ok = false
			break
		}
		keys = append(keys, ce.keys[fi])
	}
	for _, ki := range started {
		sum[ki] = 0
	}
	e.scratch.keyAt = keys
	return ok && len(keys) == len(input)
}

// flowPorts fills ins and outs with the sorted unique source and destination
// ports of the flows, reusing the given backing slices. Flows arrive in
// (Src, Dst) order, so sources dedupe in place; destinations need a sort.
func flowPorts(flows []coflow.Flow, ins, outs []int) ([]int, []int) {
	ins, outs = ins[:0], outs[:0]
	for i := range flows {
		if n := len(ins); n == 0 || ins[n-1] != flows[i].Src {
			ins = append(ins, flows[i].Src)
		}
		outs = append(outs, flows[i].Dst)
	}
	slices.Sort(outs)
	w := 0
	for i, d := range outs {
		if i == 0 || d != outs[w-1] {
			outs[w] = d
			w++
		}
	}
	return ins, outs[:w]
}

// newCacheEntry snapshots one freshly computed schedule. The input flows are
// copied because the pooled remainder buffer they sit in recycles next pass;
// the reservations slice is owned by the schedule just computed.
func newCacheEntry(lc *Live, flows []coflow.Flow, res []core.Reservation) planCacheEntry {
	ce := planCacheEntry{
		lc:     lc,
		flows:  append([]coflow.Flow(nil), flows...),
		res:    res,
		maxEnd: math.MinInt64,
	}
	for i := range res {
		ce.maxEnd = max(ce.maxEnd, res[i].End)
	}
	return ce
}

// keyPositions appends to dst the position in lc.Keys of each of the flows,
// which are a subsequence of Keys in its (Src, Dst) order.
func keyPositions(lc *Live, flows []coflow.Flow, dst []int32) []int32 {
	ki := 0
	for _, f := range flows {
		for lc.Keys[ki] != (fabric.FlowKey{Src: f.Src, Dst: f.Dst}) {
			ki++
		}
		dst = append(dst, int32(ki))
	}
	return dst
}

// remainderFrom rebuilds tmp as the Coflow's remaining demand, optionally
// excluding demand that locked reservations have yet to deliver; exclude is
// aligned with lc.Keys. Flows come out in (Src, Dst) order without sorting:
// lc.Keys was sorted once at admission.
func remainderFrom(tmp *coflow.Coflow, lc *Live, exclude []int64) *coflow.Coflow {
	tmp.ID, tmp.Arrival = lc.ID, core.Seconds(lc.Arrival)
	flows := tmp.Flows[:0]
	for i, b := range lc.Rem {
		if len(exclude) > 0 {
			b -= exclude[i]
		}
		if b > 0 {
			k := lc.Keys[i]
			flows = append(flows, coflow.Flow{Src: k.Src, Dst: k.Dst, Bytes: float64(b)})
		}
	}
	tmp.Flows = flows
	return tmp
}

// schedInput builds the IntraCoflow input for the Coflow this pass: Rem minus
// what its locked circuits have yet to deliver. A Coflow that holds no
// circuits keeps its pooled priority-sort header, which is Rem itself.
func (e *Engine) schedInput(tmp *coflow.Coflow, lc *Live) *coflow.Coflow {
	if len(lc.excl) == 0 {
		return tmp
	}
	if e.scratch.sched == nil {
		e.scratch.sched = &coflow.Coflow{}
	}
	return remainderFrom(e.scratch.sched, lc, lc.excl)
}
