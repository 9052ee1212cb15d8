package circuit

import (
	"errors"
	"math"
	"slices"
	"sort"
	"time"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
)

// planCacheEntry records one Coflow's outcome in the previous scheduling
// pass at its priority-order position. The entry is clean at the same
// position of the next pass — its reservations replayed instead of re-running
// IntraCoflow — when the Coflow id and its exclusion-adjusted remainder (the
// exact IntraCoflow input) are bit-identical and no cached reservation starts
// before (or within TimeEps of) the new pass instant.
type planCacheEntry struct {
	id int
	// flows is the IntraCoflow input the schedule was computed from, in
	// (Src, Dst) order. Compared exactly — a one-ulp drift in any term re-runs
	// the scheduler, keeping reuse bit-identical by construction.
	flows []coflow.Flow
	// res is the cached IntraCoflow output; owned by the entry (the plan
	// holds copies).
	res []core.Reservation
	// minStart and maxEnd are res's extremes (+Inf/-Inf when empty).
	minStart, maxEnd float64
	// ctx is the port context the schedule was computed against: the busy
	// intervals visible on the input flows' ports when IntraCoflow ran,
	// snapshotted just before the run and trimmed to horizon. The intra
	// search is a pure function of its input flows, its start instant and
	// this context, so a bit-exact match certifies the cached output.
	ctx []core.PortSpan
	// horizon bounds the table range the cached search could have consulted:
	// maxEnd + δ + 2·TimeEps (-Inf for an empty schedule). Every window the
	// search probes starts below maxEnd and extends at most δ plus the eps
	// tolerances.
	horizon float64
}

// replanScratch pools the per-pass buffers of replanOnce, making a
// steady-state replan allocation-free outside IntraCoflow itself.
type replanScratch struct {
	// lockedFuture maps Coflow id to the demand its in-flight circuits
	// cover, per flow, aligned with the Coflow's Keys. Subtracted from the
	// drift-free Base it yields the demand still unplanned — neither side
	// moves with delivery, so the scheduler input is bit-stable while a
	// circuit holds. The slices recycle through exclPool.
	lockedFuture map[int][]float64
	exclPool     [][]float64
	// tmps holds reusable remainder-Coflow headers, one per live Coflow; the
	// header doubles as the IntraCoflow input when the remainders coincide.
	tmps []*coflow.Coflow
	// order and key are the policy SortInto scratch.
	order []*coflow.Coflow
	key   map[int]float64
	// sched is the remainder-with-exclusions scratch Coflow.
	sched *coflow.Coflow
	// nextCache accumulates this pass's cache entries; cacheIdx maps Coflow
	// id to its index in Engine.cache.
	nextCache []planCacheEntry
	cacheIdx  map[int]int
	// spans is the pre-run port-context snapshot buffer; ins and outs hold
	// the sorted unique ports of the flows being certified or snapshotted.
	spans     []core.PortSpan
	ins, outs []int
}

// replanOnce is one scheduling pass: in-flight reservations are kept
// (non-preemption), everything else is rescheduled with IntraCoflow in
// priority order against the remaining demand. It returns the Coflow that
// could not be placed alongside the error.
func (e *Engine) replanOnce(now float64) (id int, err error) {
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
	// rebuilds plan from it. A circuit that ended since the last pass leaves
	// the plan here, and its planned bytes are folded into the drift-free
	// Base in the same breath — one subtraction per circuit, mirroring the
	// bytes credit streamed into Rem across many windows.
	locked := e.plan[:0]
	for _, r := range e.plan {
		if r.Start >= now-TimeEps {
			continue // never established; the pass replans its demand
		}
		if r.End > now+TimeEps {
			locked = append(locked, r)
			continue
		}
		if lc := e.live[r.CoflowID]; lc != nil && lc.Base != nil {
			if ki, ok := lc.Index(fabric.FlowKey{Src: r.In, Dst: r.Out}); ok {
				lc.Base[ki] -= r.Bytes
			}
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
	lockedFuture := sc.takeLockedFuture()
	for i := range locked {
		r := &locked[i]
		lc := e.live[r.CoflowID]
		if lc == nil {
			continue
		}
		ki, ok := lc.Index(fabric.FlowKey{Src: r.In, Dst: r.Out})
		if !ok {
			continue // the flow was stranded; nothing schedules it
		}
		m := lockedFuture[r.CoflowID]
		if m == nil {
			m = sc.takeExcl(len(lc.Keys))
			lockedFuture[r.CoflowID] = m
		}
		// Exclusions are in the units of the view the scheduler reads:
		// against Base (which ignores in-flight delivery) the circuit's full
		// planned bytes, against Rem only what it still delivers.
		if lc.Base != nil {
			m[ki] += r.Bytes
		} else {
			m[ki] += e.futureBytes(r, now)
		}
	}

	// Priority-sort the live Coflows on their full remaining demand. The
	// remainder headers are pooled; each also serves as the IntraCoflow input
	// when its Coflow has no locked exclusions.
	for len(sc.tmps) < len(e.live) {
		sc.tmps = append(sc.tmps, &coflow.Coflow{})
	}
	n, classes := 0, false
	for _, lc := range e.live {
		remainderFrom(sc.tmps[n], lc, lc.Rem, nil)
		n++
		classes = classes || lc.Priority != 0
	}
	ordered := e.order(sc.tmps[:n], classes)

	reuse := e.incremental && e.faults == nil
	if reuse {
		e.compactCache()
		sc.nextCache = sc.nextCache[:0]
		if sc.cacheIdx == nil {
			sc.cacheIdx = map[int]int{}
		} else {
			clear(sc.cacheIdx)
		}
		for i := range e.cache {
			sc.cacheIdx[e.cache[i].id] = i
		}
	}
	id, err = e.schedulePass(now, ordered, locked, reuse)
	if err == errBulkFallback {
		// The replayed reservations did not fit the table: the reuse checks
		// missed an invalidation. Rebuild the pass from scratch and drop the
		// cache — defense in depth, the differential suites never reach here.
		prt.Reset()
		if e.cfg.Fair != nil {
			prt.SetBlackout(*e.cfg.Fair)
		}
		sc.nextCache = sc.nextCache[:0]
		e.dropCache()
		return e.schedulePass(now, ordered, locked, false)
	}
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

// order sorts the remainder headers for scheduling: by the policy, then —
// when classes reports that a live Coflow carries a nonzero Priority —
// stably by descending Priority, so the policy order holds within each class.
func (e *Engine) order(tmps []*coflow.Coflow, classes bool) []*coflow.Coflow {
	sc := &e.scratch
	var ordered []*coflow.Coflow
	if ss, ok := e.policy.(core.ScratchSorter); ok {
		if sc.key == nil {
			sc.key = make(map[int]float64, len(tmps))
		}
		sc.order = ss.SortInto(tmps, sc.order, sc.key)
		ordered = sc.order
	} else {
		ordered = e.policy.Sort(tmps)
	}
	if classes {
		sort.SliceStable(ordered, func(a, b int) bool {
			return e.live[ordered[a].ID].Priority > e.live[ordered[b].ID].Priority
		})
	}
	return ordered
}

// errBulkFallback signals that replayed cached reservations conflicted with
// the table and the pass must be redone as a full rebuild.
var errBulkFallback = errors.New("circuit: cached schedule replay conflicted")

// schedulePass rebuilds the plan for one scheduling pass: every live Coflow,
// in priority order, either replays its cached schedule (reuse mode, when
// provably bit-identical to what IntraCoflow would produce — DESIGN.md §7)
// or runs IntraCoflow against the table built so far. The caller has Reset
// the table (with blackout and fault blocks applied); locked circuits are
// seeded here — bulk-loaded in reuse mode, Preloaded otherwise (the fault
// repair seeded them already).
//
// Reuse certification rests on the intra search being a pure function of
// its input flows, its start instant, and the busy intervals visible on the
// flows' ports below the search horizon. The input flows are compared
// bit-exactly; the start instant only matters through the table because the
// cached search placed nothing before max(now, arrival) — the minStart guard
// pins that; and the port context is compared bit-exactly against the
// snapshot taken when the cached schedule was computed, trimmed on both sides
// to intervals still visible from the pass start.
func (e *Engine) schedulePass(now float64, ordered []*coflow.Coflow, locked []core.Reservation, reuse bool) (int, error) {
	prt := e.prt
	sc := &e.scratch
	skips := int64(0)
	if reuse {
		prt.BulkAdd(locked)
		if err := prt.FinishBulk(); err != nil {
			return 0, errBulkFallback
		}
	} else if e.faults == nil {
		prt.Preload(locked)
	}
	e.plan = locked
	for _, tmp := range ordered {
		lc := e.live[tmp.ID]
		var ce *planCacheEntry
		if reuse {
			if k, ok := sc.cacheIdx[tmp.ID]; ok {
				ce = &e.cache[k]
			}
		}
		var res []core.Reservation
		finish := 0.0
		if ce != nil && e.reusable(ce, tmp, lc, now) {
			for i := range ce.res {
				if err := prt.TryReserve(ce.res[i]); err != nil {
					return 0, errBulkFallback
				}
			}
			// The cached schedule is bit-identical to what IntraCoflow would
			// recompute; only the planned finish needs refreshing — its base
			// is the pass start, which moved since the cached pass.
			res, finish = ce.res, math.Max(math.Max(now, lc.Arrival), ce.maxEnd)
			sc.nextCache = append(sc.nextCache, *ce)
			skips++
		} else {
			// Dirty: snapshot the port context the search is about to see,
			// then run the scheduler. The snapshot must precede the run —
			// IntraCoflow's own placements are its output, not its input.
			toSchedule := e.schedInput(tmp, lc)
			start := math.Max(now, lc.Arrival)
			if reuse {
				sc.ins, sc.outs = flowPorts(toSchedule.Flows, sc.ins, sc.outs)
				sc.spans = prt.SpansOn(start, math.Inf(1), sc.ins, sc.outs, sc.spans[:0])
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
				ne.horizon = ne.maxEnd + e.cfg.Delta + 2*TimeEps
				for _, sp := range sc.spans {
					if sp.Start < ne.horizon {
						ne.ctx = append(ne.ctx, sp)
					}
				}
				sc.nextCache = append(sc.nextCache, ne)
			}
		}
		for _, r := range locked {
			if r.CoflowID == tmp.ID && r.End > finish {
				finish = r.End
			}
		}
		lc.Finish = finish
		e.plan = append(e.plan, res...)
	}
	if o := e.cfg.Obs; o != nil {
		o.IntraSkipped.Add(skips)
	}
	return 0, nil
}

// compactCache drops cache entries for Coflows that have left the fabric.
// A retired Coflow's still-future occupancy vanishing from the table is
// caught by the snapshot comparison of any entry placed around it.
func (e *Engine) compactCache() {
	out := e.cache[:0]
	for i := range e.cache {
		if e.live[e.cache[i].id] != nil {
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

// reusable reports whether the cached entry can be replayed for the Coflow
// this pass: its input flows are bit-identical; none of its placements have
// started or fall in the (now, now+TimeEps] fuzz band — placements there
// were made against commitments the eps-tolerant comparisons could now round
// the other way; and the busy intervals currently visible on its ports below
// its horizon match the cached snapshot bit for bit.
func (e *Engine) reusable(ce *planCacheEntry, tmp *coflow.Coflow, lc *Live, now float64) bool {
	if ce.minStart < now || (ce.minStart > now && ce.minStart <= now+TimeEps) {
		return false
	}
	if !flowsEqual(ce.flows, e.schedInput(tmp, lc).Flows) {
		return false
	}
	sc := &e.scratch
	sc.ins, sc.outs = flowPorts(ce.flows, sc.ins, sc.outs)
	return e.prt.SpansMatch(ce.ctx, math.Max(now, lc.Arrival), ce.horizon, sc.ins, sc.outs)
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
	sort.Ints(outs)
	w := 0
	for i, d := range outs {
		if i == 0 || d != outs[w-1] {
			outs[w] = d
			w++
		}
	}
	return ins, outs[:w]
}

// flowsEqual compares two flow slices exactly — Flow is comparable, so this
// is a bit-exact test of the scheduler input.
func flowsEqual(a, b []coflow.Flow) bool { return slices.Equal(a, b) }

// newCacheEntry snapshots one freshly computed schedule. The input flows are
// copied because the pooled remainder buffer they sit in recycles next pass;
// the reservations slice is owned by the schedule just computed.
func newCacheEntry(id int, flows []coflow.Flow, res []core.Reservation) planCacheEntry {
	ce := planCacheEntry{
		id:       id,
		flows:    append([]coflow.Flow(nil), flows...),
		res:      res,
		minStart: math.Inf(1),
		maxEnd:   math.Inf(-1),
	}
	for i := range res {
		ce.minStart = math.Min(ce.minStart, res[i].Start)
		ce.maxEnd = math.Max(ce.maxEnd, res[i].End)
	}
	return ce
}

// takeLockedFuture returns the pooled exclusion map, emptied, with its
// slices recycled into the pool.
func (sc *replanScratch) takeLockedFuture() map[int][]float64 {
	if sc.lockedFuture == nil {
		sc.lockedFuture = map[int][]float64{}
		return sc.lockedFuture
	}
	for _, m := range sc.lockedFuture {
		sc.exclPool = append(sc.exclPool, m)
	}
	clear(sc.lockedFuture)
	return sc.lockedFuture
}

// takeExcl returns n zeroed exclusions, pooled when available.
func (sc *replanScratch) takeExcl(n int) []float64 {
	var m []float64
	if k := len(sc.exclPool); k > 0 {
		m = sc.exclPool[k-1]
		sc.exclPool = sc.exclPool[:k-1]
	}
	m = slices.Grow(m[:0], n)[:n]
	clear(m)
	return m
}

// remainderFrom rebuilds tmp as the Coflow's remaining demand read from src,
// optionally excluding demand that locked reservations will serve; src and
// exclude are aligned with lc.Keys. Flows come out in (Src, Dst) order
// without sorting: lc.Keys was sorted once at admission.
func remainderFrom(tmp *coflow.Coflow, lc *Live, src, exclude []float64) *coflow.Coflow {
	tmp.ID, tmp.Arrival = lc.ID, lc.Arrival
	flows := tmp.Flows[:0]
	for i, b := range src {
		if exclude != nil {
			b -= exclude[i]
		}
		if b > ByteEps {
			k := lc.Keys[i]
			flows = append(flows, coflow.Flow{Src: k.Src, Dst: k.Dst, Bytes: b})
		}
	}
	tmp.Flows = flows
	return tmp
}

// schedInput builds the IntraCoflow input for the Coflow this pass: the
// drift-free Base minus what its in-flight circuits carry. A Coflow that
// never carried a byte and holds no circuits keeps its pooled priority-sort
// header — Rem and Base are still identical there, so the remainders are too.
func (e *Engine) schedInput(tmp *coflow.Coflow, lc *Live) *coflow.Coflow {
	excl := e.scratch.lockedFuture[lc.ID]
	if lc.Base == nil && excl == nil {
		return tmp
	}
	if e.scratch.sched == nil {
		e.scratch.sched = &coflow.Coflow{}
	}
	src := lc.Rem
	if lc.Base != nil {
		src = lc.Base
	}
	return remainderFrom(e.scratch.sched, lc, src, excl)
}
