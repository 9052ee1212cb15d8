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
// context, horizon and maxEnd stay those of the original search.
type planCacheEntry struct {
	id int
	// flows is the IntraCoflow input the reservations continue, in (Src, Dst)
	// order: the original input minus the bytes of the reservations that
	// started before the last replay. Compared exactly — any changed byte
	// re-runs the scheduler, keeping reuse bit-identical by construction.
	flows []coflow.Flow
	// res is the cached IntraCoflow output not yet started at the last
	// replay, in emission (non-decreasing Start) order; owned by the entry
	// (the plan holds copies).
	res []core.Reservation
	// maxEnd is the latest End of the original output (math.MinInt64 when
	// empty).
	maxEnd int64
	// ctx is the port context the schedule was computed against: the busy
	// intervals visible on the input flows' ports when IntraCoflow ran,
	// snapshotted just before the run and trimmed to horizon.
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
	// started sums, per cached flow, the bytes of the reservations a
	// continuation skips (see continues).
	started []int64
	// nextCache accumulates this pass's cache entries.
	nextCache []planCacheEntry
	// spans is the pre-run port-context snapshot buffer; ins and outs hold
	// the sorted unique ports of the flows being certified or snapshotted.
	spans     []core.PortSpan
	ins, outs []int
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
	// The filter runs in place: locked is a subsequence of plan and the pass
	// rebuilds plan from it. A circuit that ended since the last pass has
	// been debited in full and leaves the plan here; one never established
	// has its demand replanned.
	locked := e.plan[:0]
	for _, r := range e.plan {
		if r.Start < now && r.End > now {
			locked = append(locked, r)
		}
	}

	prt := e.prt
	prt.Reset()
	if e.cfg.Fair != nil {
		prt.SetBlackout(*e.cfg.Fair)
	}
	if e.faults != nil {
		locked = e.repairTable(locked, now)
	}

	sc := &e.scratch
	ordered := e.order()
	for i := range locked {
		r := &locked[i]
		lc := e.live[r.CoflowID]
		if lc == nil {
			continue
		}
		lc.lockedEnd = max(lc.lockedEnd, r.End)
		ki, ok := lc.Index(fabric.FlowKey{Src: r.In, Dst: r.Out})
		if !ok {
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
		e.compactCache()
		sc.nextCache = sc.nextCache[:0]
	}
	id, err = e.schedulePass(now, ordered, locked, reuse)
	if err == nil && reuse {
		// Swap the rebuilt cache in; stale entries are zeroed so the old
		// backing array does not pin retired schedules for the GC.
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
// applied); locked circuits are seeded here — bulk-loaded in reuse mode,
// Preloaded otherwise (the fault repair seeded them already).
func (e *Engine) schedulePass(now int64, ordered []ranked, locked []core.Reservation, reuse bool) (int, error) {
	prt := e.prt
	sc := &e.scratch
	skips, continued := int64(0), int64(0)
	if reuse {
		// Locked circuits held their ports in the last plan, so they cannot
		// conflict: a failure here is a bug, as a panicking Preload is.
		prt.BulkAdd(locked)
		if err := prt.FinishBulk(); err != nil {
			panic(err)
		}
	} else if e.faults == nil {
		prt.Preload(locked)
	}
	e.plan = locked
	for _, it := range ordered {
		tmp, lc := it.tmp, it.lc
		toSchedule := e.schedInput(tmp, lc)
		start := max(now, lc.Arrival)
		var ce *planCacheEntry
		if k := lc.cacheAt; reuse && k < len(e.cache) && e.cache[k].id == tmp.ID {
			ce = &e.cache[k]
		}
		var res []core.Reservation
		var finish int64
		if k, ok := e.reusable(ce, toSchedule.Flows, start); ok {
			if k > 0 {
				// Carry the entry forward in place: the input it now
				// continues, and the reservations not yet started.
				ce.flows = append(ce.flows[:0], toSchedule.Flows...)
				ce.res = ce.res[k:]
				continued++
			}
			for i := range ce.res {
				prt.Reserve(ce.res[i]) // reusable checked that each fits
			}
			// Only the planned finish needs refreshing — its base is the pass
			// start, which moved since the cached pass. A started reservation
			// ending after the pass start is locked, so lockedEnd covers it.
			res, finish = ce.res, max(start, ce.maxEnd)
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
				LinkBps:   e.cfg.LinkBps,
				Delta:     e.cfg.Delta,
				Start:     start,
				Order:     e.cfg.Order,
				Seed:      e.cfg.Seed,
				Reference: e.cfg.Reference,
				Obs:       e.cfg.Obs,
				Prof:      e.cfg.Prof,
			})
			if err != nil {
				return tmp.ID, err
			}
			res, finish = sched.Reservations, sched.Finish
			if reuse {
				ne := newCacheEntry(tmp.ID, toSchedule.Flows, res)
				ne.horizon = ne.maxEnd + e.cfg.Delta
				// The snapshot below the horizon, in a slice of its own size: the
				// entry keeps it for the Coflow's lifetime.
				visible := slices.DeleteFunc(sc.spans, func(sp core.PortSpan) bool { return sp.Start >= ne.horizon })
				ne.ctx = slices.Clone(visible)
				sc.nextCache = append(sc.nextCache, ne)
			}
		}
		lc.Finish = max(finish, lc.lockedEnd)
		e.plan = append(e.plan, res...)
	}
	if o := e.cfg.Obs; o != nil {
		o.IntraSkipped.Add(skips)
		o.IntraContinued.Add(continued)
	}
	return 0, nil
}

// compactCache drops cache entries for Coflows that have left the fabric and
// points each live Coflow with an entry at it.
// A retired Coflow's still-future occupancy vanishing from the table is
// caught by the context containment check of any entry placed around it.
func (e *Engine) compactCache() {
	out := e.cache[:0]
	for i := range e.cache {
		if lc := e.live[e.cache[i].id]; lc != nil {
			lc.cacheAt = len(out)
			out = append(out, e.cache[i])
		}
	}
	for i := len(out); i < len(e.cache); i++ {
		e.cache[i] = planCacheEntry{}
	}
	e.cache = out
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
	if !e.continues(ce.flows, ce.res[:k], input) || !e.prt.ContainsSpans(ce.ctx, start) {
		return 0, false
	}
	for i := k; i < len(ce.res); i++ {
		if !e.prt.Fits(ce.res[i]) {
			return 0, false
		}
	}
	return k, true
}

// continues reports whether input is exactly flows minus the bytes the
// started reservations carry, flow by flow, with drained flows dropped. Both
// flow lists are in (Src, Dst) order and hold whole bytes.
func (e *Engine) continues(flows []coflow.Flow, started []core.Reservation, input []coflow.Flow) bool {
	if len(started) == 0 {
		return slices.Equal(flows, input) // Flow is comparable: bit-exact
	}
	sum := slices.Grow(e.scratch.started[:0], len(flows))[:len(flows)]
	clear(sum)
	e.scratch.started = sum
	for i := range started {
		r := &started[i]
		fi, ok := slices.BinarySearchFunc(flows, fabric.FlowKey{Src: r.In, Dst: r.Out}, func(f coflow.Flow, k fabric.FlowKey) int {
			return compareKeys(fabric.FlowKey{Src: f.Src, Dst: f.Dst}, k)
		})
		if !ok {
			return false
		}
		sum[fi] += r.Bytes
	}
	j := 0
	for i, f := range flows {
		b := int64(f.Bytes) - sum[i]
		if b == 0 {
			continue
		}
		if b < 0 || j == len(input) || input[j] != (coflow.Flow{Src: f.Src, Dst: f.Dst, Bytes: float64(b)}) {
			return false
		}
		j++
	}
	return j == len(input)
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
func newCacheEntry(id int, flows []coflow.Flow, res []core.Reservation) planCacheEntry {
	ce := planCacheEntry{
		id:     id,
		flows:  append([]coflow.Flow(nil), flows...),
		res:    res,
		maxEnd: math.MinInt64,
	}
	for i := range res {
		ce.maxEnd = max(ce.maxEnd, res[i].End)
	}
	return ce
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
