// Package circuit is the deterministic circuit-scheduling state machine of
// Sunflow's online algorithm (§4, Algorithm 1): a live set of Coflows whose
// remaining whole-byte demand is debited as planned circuits carry it, and a
// plan that is rebuilt at every arrival and completion — established circuits
// keep their reservations (non-preemption), everything else is rescheduled
// with IntraCoflow in priority order on one reused PRT.
//
// Two drivers run it. internal/sim feeds it a Coflow Source and writes the
// simulator's Result; internal/daemon feeds it accepted API events and
// records completions, declared outages and a digest chain. The engine owns
// every scheduling decision — crediting, retirement, the replan pass with its
// plan cache, fault repair and stranding — so both drivers produce
// bit-identical schedules from the same inputs (DESIGN.md §7).
package circuit

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/obs"
	"sunflow/internal/obs/span"
)

// Every instant and duration in the engine is an int64 tick (ns, see
// core.Nanos): the clock, the plan, the live set and the plan cache compare
// exactly.

// Config fixes the fabric and scheduling parameters of an Engine.
type Config struct {
	// Ports is the switch port count N.
	Ports int
	// LinkBps is the per-port bandwidth B in bits/s.
	LinkBps float64
	// Delta is the circuit reconfiguration delay δ in ticks.
	Delta int64
	// Policy orders live Coflows at each replan; nil selects
	// shortest-Coflow-first by the remaining packet-switched lower bound.
	// Priority classes (Live.Priority) order ahead of the policy.
	Policy core.Policy
	// Order is the intra-Coflow reservation ordering; Seed drives RandomOrder.
	Order core.Order
	Seed  int64
	// Fair optionally enables the starvation-avoidance windows of §4.2.
	Fair *core.FairWindows
	// Obs and Prof optionally record metrics, trace events and profiling
	// spans; neither ever influences state.
	Obs  *obs.Observer
	Prof *span.Stack
	// Sink receives retired Coflows and stranded flows.
	Sink Sink
}

// Sink is how a driver records what leaves the live set.
type Sink interface {
	// Retire reports a Coflow whose routable demand drained at finish.
	// Retirements arrive in (instant, id) order.
	Retire(c *Live, finish int64)
	// Strand reports one flow quarantined at instant at because a permanent
	// port failure left it unroutable; bytes is its unserved demand.
	Strand(c *Live, k fabric.FlowKey, bytes int64, at int64)
}

// Live is one admitted, unfinished Coflow.
type Live struct {
	ID       int
	Arrival  int64
	Priority int
	// Bytes is the Coflow's total positive input demand at admission, before
	// rounding to whole bytes.
	Bytes float64
	// Keys holds the Coflow's flows in (Src, Dst) order, fixed at admission;
	// Rem is a dense slice aligned with it, and Index finds a flow's
	// position. Every planned reservation carries its flow's position
	// (Engine.flowAt). Stranding splices the flow out of both and marks its
	// circuits' positions −1, so a later debit for one of them finds no entry
	// to touch.
	Keys []fabric.FlowKey
	// Rem is the unserved whole-byte demand per flow, including demand
	// in-flight circuits will deliver. Debited by exactly what circuits carry
	// (core.Reservation.Delivered), it drives the priority key, completion
	// detection (a flow is done at exactly 0) and stranded-byte accounting.
	Rem []int64
	// FlowFinish records actual flow completion instants. Written once per
	// flow, off the replan path, it stays keyed by flow.
	FlowFinish map[fabric.FlowKey]int64
	// Finish is the planned completion time under the current plan
	// (core.Forever before the first pass).
	Finish int64
	// Switches counts circuit establishments made on the Coflow's behalf.
	Switches int
	// Stranded marks a Coflow that lost at least one flow to a permanent port
	// failure; StrandedBytes is the demand those flows could not deliver.
	Stranded      bool
	StrandedBytes int64
	// flowStarted and demand serve flow_start/flow_finish trace events;
	// allocated only when tracing is on.
	flowStarted map[fabric.FlowKey]bool
	demand      map[fabric.FlowKey]int64
	// key caches the policy key of the Coflow's remainder while keyOK holds;
	// every write to Rem clears keyOK, so a zero Live starts without one.
	key   float64
	keyOK bool
	// cand marks a Coflow queued for the next retire check (mayRetire).
	cand bool
	// excl and lockedEnd describe the Coflow's locked circuits in the
	// current pass. excl is the demand they have yet to deliver per flow,
	// aligned with Keys (empty if none): subtracted from Rem it yields the
	// demand still unplanned. Both sides fall by the same whole bytes as a
	// circuit delivers, so the scheduler input is constant while circuits
	// hold. lockedEnd is their latest End (math.MinInt64 if none).
	excl      []int64
	lockedEnd int64
	// cacheAt is the index of the Coflow's plan-cache entry, set when the
	// pass that built the cache appended it, and valid while
	// Engine.cache[cacheAt] names this Live.
	cacheAt int
}

// Index returns the position of flow k in Keys and Rem, by binary
// search; ok is false for a flow the Coflow does not hold (never had, or
// stranded).
func (lc *Live) Index(k fabric.FlowKey) (i int, ok bool) {
	return slices.BinarySearchFunc(lc.Keys, k, compareKeys)
}

// compareKeys orders flow keys by (Src, Dst).
func compareKeys(a, b fabric.FlowKey) int {
	return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
}

// Engine is the circuit state machine. It is not safe for concurrent use.
type Engine struct {
	cfg    Config
	policy core.Policy
	now    int64
	live   map[int]*Live
	// plan holds all reservations not yet fully credited: circuits in flight
	// plus the planned future. flowAt is aligned with it: the position of each
	// reservation's flow in its Coflow's Keys, found once when the
	// reservation is placed (or restored) and carried through replays and
	// locks, so crediting and replanning index Rem without a search; −1 once
	// the flow is stranded.
	plan   []core.Reservation
	flowAt []int32
	// faults is the fault view; nil on a fault-free fabric, keeping every
	// fault branch behind one nil check.
	faults *Faults
	// prt is rebuilt by every replan and reused across passes, so replanning
	// is allocation-free on the timelines.
	prt *core.PRT
	// incremental enables plan-cache reuse on fault-free passes. It is off
	// under SUNFLOW_FULL_REPLAN, which forces the retained full-rebuild
	// pass (DESIGN.md §7).
	incremental bool
	// passes counts successful scheduling passes.
	passes uint64
	// cands holds the ids the next retire checks (see mayRetire); dueIdx is
	// the scratch behind due.
	cands, dueIdx []int
	// cache holds the previous reusing pass's per-Coflow outcomes in
	// priority order.
	cache   []planCacheEntry
	scratch replanScratch
}

// New returns an empty Engine whose clock starts at start.
func New(cfg Config, start int64) *Engine {
	policy := cfg.Policy
	if policy == nil {
		policy = core.ShortestFirst{LinkBps: cfg.LinkBps}
	}
	return &Engine{
		cfg:         cfg,
		policy:      policy,
		now:         start,
		live:        map[int]*Live{},
		prt:         core.NewPRT(cfg.Ports),
		incremental: os.Getenv("SUNFLOW_FULL_REPLAN") == "",
	}
}

// Now returns the engine clock.
func (e *Engine) Now() int64 { return e.now }

// Len returns the number of live Coflows.
func (e *Engine) Len() int { return len(e.live) }

// Lookup returns the live Coflow with the id, or nil.
func (e *Engine) Lookup(id int) *Live { return e.live[id] }

// Plan returns the current plan. The slice is the engine's; callers must not
// modify or retain it.
func (e *Engine) Plan() []core.Reservation { return e.plan }

// Passes returns the number of successful scheduling passes.
func (e *Engine) Passes() uint64 { return e.passes }

// SortedIDs returns the live Coflow ids in ascending order.
func (e *Engine) SortedIDs() []int {
	ids := make([]int, 0, len(e.live))
	for id := range e.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Restore overwrites the engine with checkpointed state: the clock, the live
// set, the plan and the pass count. Each planned reservation's flow position
// is looked up once, here. The plan cache starts empty, which reuse
// certification makes invisible in every schedule.
func (e *Engine) Restore(now int64, live []*Live, plan []core.Reservation, passes uint64) {
	e.now = now
	e.live = make(map[int]*Live, len(live))
	e.cands = e.cands[:0]
	for _, lc := range live {
		e.live[lc.ID] = lc
		e.mayRetire(lc)
	}
	e.plan = append([]core.Reservation(nil), plan...)
	e.flowAt = make([]int32, len(plan))
	for i, r := range e.plan {
		e.flowAt[i] = -1
		if lc := e.live[r.CoflowID]; lc != nil {
			if ki, ok := lc.Index(fabric.FlowKey{Src: r.In, Dst: r.Out}); ok {
				e.flowAt[i] = int32(ki)
			}
		}
	}
	e.passes = passes
	e.dropCache()
}

// Admit adds c, arriving at tick arrival, to the live set at the engine
// clock. Each input flow is rounded once to whole bytes. It reports false,
// leaving the engine untouched, when no flow carries a whole byte: such a
// Coflow completes at its arrival and the caller records it. The engine keys
// circuits by Coflow id, so an id must not be re-admitted while circuits of
// its previous holder are planned.
func (e *Engine) Admit(c *coflow.Coflow, arrival int64, priority int) bool {
	// The flows with whole-byte demand in (Src, Dst) order; a repeated pair's
	// bytes are summed.
	type flowBytes struct {
		k fabric.FlowKey
		b int64
	}
	fs := make([]flowBytes, 0, len(c.Flows))
	total := 0.0
	for _, f := range c.Flows {
		if f.Bytes > 0 {
			total += f.Bytes
			if b := int64(math.Round(f.Bytes)); b > 0 {
				fs = append(fs, flowBytes{fabric.FlowKey{Src: f.Src, Dst: f.Dst}, b})
			}
		}
	}
	if len(fs) == 0 {
		return false
	}
	slices.SortFunc(fs, func(a, b flowBytes) int { return compareKeys(a.k, b.k) })
	keys := make([]fabric.FlowKey, 0, len(fs))
	rem := make([]int64, 0, len(fs))
	for i, f := range fs {
		if i > 0 && f.k == fs[i-1].k {
			rem[len(rem)-1] += f.b
		} else {
			keys = append(keys, f.k)
			rem = append(rem, f.b)
		}
	}
	lc := &Live{
		ID:         c.ID,
		Arrival:    arrival,
		Priority:   priority,
		Bytes:      total,
		Rem:        rem,
		Keys:       keys,
		FlowFinish: make(map[fabric.FlowKey]int64, len(rem)),
		Finish:     core.Forever,
	}
	if o := e.cfg.Obs; o != nil {
		o.CoflowsAdmitted.Inc()
		if o.TraceEnabled() {
			lc.flowStarted = make(map[fabric.FlowKey]bool, len(rem))
			lc.demand = make(map[fabric.FlowKey]int64, len(rem))
			for i, k := range keys {
				lc.demand[k] = rem[i]
			}
			o.Emit(obs.Event{T: core.Seconds(e.now), Kind: obs.KindCoflowAdmit, Coflow: c.ID, Src: -1, Dst: -1, Bytes: c.TotalBytes()})
		}
	}
	e.live[c.ID] = lc
	return true
}

// Remove takes a live Coflow out of the fabric without retiring it — an
// external completion. Its established circuits keep their ports until they
// end; the next replan drops its unestablished reservations.
func (e *Engine) Remove(id int) *Live {
	lc := e.live[id]
	delete(e.live, id)
	return lc
}

// NextEvent returns the next instant the engine must be stepped at: a planned
// Coflow completion, a fair window end or a fault boundary (core.Forever if
// none).
func (e *Engine) NextEvent() int64 {
	te := int64(core.Forever)
	for _, lc := range e.live {
		te = min(te, lc.Finish)
	}
	if e.cfg.Fair != nil {
		te = min(te, e.cfg.Fair.NextEnd(e.now))
	}
	if e.faults != nil {
		te = min(te, e.faults.NextBoundary(e.now))
	}
	return te
}

// Step moves the clock to the event instant t: transmission up to t is
// credited, fault boundaries on the way are applied, newly dead flows are
// quarantined and drained Coflows retire. The caller admits arrivals at t and
// then calls Replan.
func (e *Engine) Step(t int64) {
	e.Credit(t)
	if e.faults != nil {
		e.quarantine(t)
	}
	e.retire(t)
}

// Credit moves the clock to t, crediting transmission in between and applying
// the fault boundaries it passes, without retiring anything.
func (e *Engine) Credit(t int64) {
	if len(e.live) > 0 {
		e.credit(e.now, t)
	}
	if e.faults != nil {
		e.syncFaults(t)
	}
	e.now = t
}

// Replan rebuilds the plan at the engine clock. Under faults, flows a
// permanent outage made unroutable are quarantined first, and a pass that
// stalls strands the stalled Coflow's doomed flows and retries, so every
// solvable workload still completes. Any other scheduler failure is returned.
func (e *Engine) Replan() error {
	now := e.now
	if e.faults != nil {
		e.quarantine(now)
		e.retire(now)
	}
	for {
		id, err := e.replanOnce(now)
		if err == nil {
			e.passes++
			return nil
		}
		if e.faults != nil && errors.Is(err, core.ErrStalled) {
			if lc := e.live[id]; lc != nil && e.strandFlows(lc, now, core.Forever-1) {
				// Fully stranded Coflows must leave the live set before the
				// retry or they would stall it again.
				e.retire(now)
				continue
			}
		}
		return fmt.Errorf("coflow %d at t=%.6f: %w", id, core.Seconds(now), err)
	}
}

// due returns, in core.CompareReservations order, the indices of the plan
// entries starting before to: the established circuits plus those whose
// setup began since the last step, a few per port. The plan stays in
// emission order.
func (e *Engine) due(to int64) []int {
	d := e.dueIdx[:0]
	for i := range e.plan {
		if e.plan[i].Start < to {
			d = append(d, i)
		}
	}
	plan := e.plan
	slices.SortFunc(d, func(a, b int) int { return core.CompareReservations(plan[a], plan[b]) })
	e.dueIdx = d
	return d
}

// credit applies all transmission occurring in [from, to): planned circuit
// reservations plus shared service in fair windows. It also counts circuit
// establishments whose setup begins in the interval.
//
// A circuit debits its flow by Delivered(to) − Delivered(from). Those
// differences telescope, so crediting [a, c) whole or as [a, b) then [b, c)
// leaves the same Rem, and a flow drains when Rem reaches exactly 0.
//
// Only the due reservations are walked, in (Start, In, Out) order; the result
// is bit-identical to crediting the whole plan in start order:
//   - Rem and FlowFinish depend only on the order of one flow's
//     reservations, and those have distinct Starts (one circuit per port), so
//     any start order credits them identically.
//   - An entry with Start >= to contributes nothing in [from, to): the setup
//     branch needs Start < to, Delivered is 0 at both ends, and its
//     circuit_down would need a zero-length reservation.
//
// Tied-Start reservations on different ports add into the float counters and
// the trace in (In, Out) order.
func (e *Engine) credit(from, to int64) {
	if to <= from {
		return
	}
	csp := e.cfg.Prof.Start("sim.credit")
	defer csp.Finish()
	due := e.due(to)
	o := e.cfg.Obs
	if o != nil {
		o.CreditVisits.Add(int64(len(due)))
	}
	for _, idx := range due {
		r := &e.plan[idx]
		lc := e.live[r.CoflowID]
		if r.Start >= from && r.Start < to {
			if lc != nil {
				lc.Switches++
			}
			var retries []int64
			delta := r.Setup
			if e.faults != nil {
				retries = e.establishFaulty(r)
			}
			if o != nil {
				o.CircuitSetups.Inc()
				// The hold as replay derives it from the circuit_up and
				// circuit_down instants, so the sums agree bit for bit.
				hold := core.Seconds(r.End) - core.Seconds(r.Start)
				o.SetupSeconds.Add(core.Seconds(r.Setup))
				o.HoldSeconds.Add(hold)
				o.PlannedBytes.Add(float64(r.Bytes))
				o.InBusySeconds.Add(r.In, hold)
				o.OutBusySeconds.Add(r.Out, hold)
				if o.TraceEnabled() {
					o.Emit(obs.Event{T: core.Seconds(r.Start), Kind: obs.KindCircuitUp, Coflow: r.CoflowID, Src: r.In, Dst: r.Out, Bytes: float64(r.Bytes), Dur: core.Seconds(r.Setup)})
					// Retries follow the circuit_up that owns them so replay
					// sees an open circuit; Dur carries the per-attempt δ.
					for _, off := range retries {
						o.Emit(obs.Event{T: core.Seconds(r.Start + off), Kind: obs.KindCircuitRetry, Coflow: r.CoflowID, Src: r.In, Dst: r.Out, Dur: core.Seconds(delta)})
					}
				}
			}
		}
		if o.TraceEnabled() && r.End > from && r.End <= to {
			o.Emit(obs.Event{T: core.Seconds(r.End), Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
		}
		if lc == nil {
			continue
		}
		bps := e.rate(r)
		before := r.Delivered(from, bps)
		d := r.Delivered(to, bps) - before
		if d <= 0 {
			continue
		}
		ki := e.flowAt[idx]
		if ki < 0 || lc.Rem[ki] == 0 {
			continue
		}
		key := fabric.FlowKey{Src: r.In, Dst: r.Out}
		rem := lc.Rem[ki]
		lc.keyOK = false
		if o != nil {
			o.BytesDelivered.Add(float64(min(rem, d)))
		}
		if lc.flowStarted != nil && !lc.flowStarted[key] {
			lc.flowStarted[key] = true
			o.Emit(obs.Event{T: core.Seconds(max(from, r.TransmitStart())), Kind: obs.KindFlowStart, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
		}
		if rem > d {
			lc.Rem[ki] = rem - d
			continue
		}
		// The flow drains inside this reservation, once the circuit has
		// carried rem bytes beyond the before it had delivered by from:
		// p(before+rem) after the transmit start. before+rem is the same
		// however the window was split, so the instant is too. A circuit
		// whose Bytes round up its capacity delivers the last of them at End.
		finish := min(r.End, r.TransmitStart()+core.ProcTicks(before+rem, bps))
		lc.Rem[ki] = 0
		e.mayRetire(lc)
		if _, done := lc.FlowFinish[key]; !done {
			lc.FlowFinish[key] = finish
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: core.Seconds(finish), Kind: obs.KindFlowFinish, Coflow: r.CoflowID, Src: r.In, Dst: r.Out, Bytes: float64(lc.demand[key])})
			}
		}
	}
	if e.cfg.Fair != nil {
		e.creditFairWindows(from, to)
	}
}

// creditFairWindows applies the shared round-robin service of §4.2 within
// [from, to): during each τ window, circuit [i, A_k(i)] serves the remaining
// demand of all live Coflows on that port pair with equal instantaneous
// shares, each floored to whole bytes.
func (e *Engine) creditFairWindows(from, to int64) {
	// sharer is a live Coflow with demand on a window circuit: its id and
	// the position of the flow in its slices.
	type sharer struct{ id, ki int }
	o := e.cfg.Obs
	for _, w := range e.cfg.Fair.WindowsIn(from, to) {
		if o.TraceEnabled() {
			// Windows can straddle several credit intervals; emit each
			// boundary only in the interval containing it.
			if w.Start >= from && w.Start < to {
				o.Emit(obs.Event{T: core.Seconds(w.Start), Kind: obs.KindWindowOpen, Coflow: -1, Src: -1, Dst: -1, Dur: core.Seconds(w.End - w.Start)})
			}
			if w.End > from && w.End <= to {
				o.Emit(obs.Event{T: core.Seconds(w.End), Kind: obs.KindWindowClose, Coflow: -1, Src: -1, Dst: -1})
			}
		}
		segStart := max(from, w.Start+e.cfg.Delta)
		segEnd := min(to, w.End)
		if segEnd <= segStart {
			continue
		}
		for i, j := range w.Assign {
			key := fabric.FlowKey{Src: i, Dst: j}
			var sharers []sharer
			for id, lc := range e.live {
				if ki, ok := lc.Index(key); ok && lc.Rem[ki] > 0 {
					sharers = append(sharers, sharer{id, ki})
				}
			}
			if len(sharers) == 0 {
				continue
			}
			slices.SortFunc(sharers, func(a, b sharer) int { return cmp.Compare(a.id, b.id) })
			rems := make([]float64, len(sharers))
			for idx, sh := range sharers {
				rems[idx] = float64(e.live[sh.id].Rem[sh.ki])
			}
			served := core.ShareCircuit(rems, core.Seconds(segEnd-segStart), e.cfg.LinkBps)
			for idx, sh := range sharers {
				id, ki := sh.id, sh.ki
				lc := e.live[id]
				// A share never exceeds its remainder: a flow served in full
				// gets exactly its remainder back, the rest a lower level.
				b := int64(served[idx])
				if o != nil {
					o.BytesDelivered.Add(float64(b))
				}
				if lc.flowStarted != nil && b > 0 && !lc.flowStarted[key] {
					lc.flowStarted[key] = true
					o.Emit(obs.Event{T: core.Seconds(segStart), Kind: obs.KindFlowStart, Coflow: id, Src: i, Dst: j})
				}
				lc.Rem[ki] -= b
				lc.keyOK = false
				if lc.Rem[ki] > 0 {
					continue
				}
				e.mayRetire(lc)
				if _, done := lc.FlowFinish[key]; !done {
					// Exact drain instants inside a shared window are not
					// tracked; the window end bounds the error by τ.
					lc.FlowFinish[key] = segEnd
					if o.TraceEnabled() {
						o.Emit(obs.Event{T: core.Seconds(segEnd), Kind: obs.KindFlowFinish, Coflow: id, Src: i, Dst: j, Bytes: float64(lc.demand[key])})
					}
				}
			}
		}
	}
}

// CloseTrace emits circuit_down for circuits still holding their ports at the
// clock. Non-preemption commits an established circuit through its
// reservation end, so when fair windows drain the last demand early the port
// is still held past the final event; the down is stamped at the reservation
// end, matching the HoldSeconds the counters accrued at setup.
func (e *Engine) CloseTrace() {
	o := e.cfg.Obs
	if !o.TraceEnabled() {
		return
	}
	for _, idx := range e.due(e.now) {
		if r := &e.plan[idx]; r.Start < e.now && r.End > e.now {
			o.Emit(obs.Event{T: core.Seconds(r.End), Kind: obs.KindCircuitDown, Coflow: r.CoflowID, Src: r.In, Dst: r.Out})
		}
	}
}

// mayRetire queues lc for the next retire check. It is called wherever a
// Coflow can lose its last unserved byte: a Rem entry set to 0, a flow
// stranded, a restore.
func (e *Engine) mayRetire(lc *Live) {
	if !lc.cand {
		lc.cand = true
		e.cands = append(e.cands, lc.ID)
	}
}

// retire hands Coflows whose routable demand has drained to the sink, in id
// order so completions at one instant are reported identically on every run.
// Only the Coflows mayRetire queued can have drained.
func (e *Engine) retire(now int64) {
	slices.Sort(e.cands)
	ids := slices.Compact(e.cands) // an id repeats after Remove and re-admission
	for _, id := range ids {
		lc := e.live[id]
		if lc == nil {
			continue // removed
		}
		lc.cand = false
		if slices.ContainsFunc(lc.Rem, func(b int64) bool { return b > 0 }) {
			continue
		}
		// The Coflow finished at its latest flow finish, which can precede
		// the event instant now.
		finish := int64(math.MinInt64)
		for _, f := range lc.FlowFinish {
			finish = max(finish, f)
		}
		if finish == math.MinInt64 {
			finish = now
		}
		e.cfg.Sink.Retire(lc, finish)
		delete(e.live, id)
		if o := e.cfg.Obs; o != nil && !lc.Stranded {
			o.CoflowsCompleted.Inc()
			if o.TraceEnabled() {
				o.Emit(obs.Event{T: core.Seconds(finish), Kind: obs.KindCoflowComplete, Coflow: id, Src: -1, Dst: -1, Dur: core.Seconds(finish - lc.Arrival)})
			}
		}
	}
	e.cands = ids[:0]
}
