package circuit

import (
	"cmp"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sunflow/internal/coflow"
	"sunflow/internal/core"
	"sunflow/internal/fabric"
	"sunflow/internal/fault"
	"sunflow/internal/obs"
)

// bookkeepingSeeds is the number of random engine scenarios
// TestQuickEngineBookkeeping drives; each policy gets a third of them.
const bookkeepingSeeds = 240

// testSink records retirements and checks, at the moment of each one, that
// the Coflow has no byte left; it sums the stranded bytes.
type testSink struct {
	t        *testing.T
	retired  []*Live
	stranded int64
}

func (s *testSink) Retire(lc *Live, finish int64) {
	if !drained(lc) {
		s.t.Fatalf("coflow %d retired with Rem %v", lc.ID, lc.Rem)
	}
	s.retired = append(s.retired, lc)
}

func (s *testSink) Strand(_ *Live, _ fabric.FlowKey, bytes int64, _ int64) { s.stranded += bytes }

// ns converts a test's seconds to ticks.
func ns(sec float64) int64 {
	t, err := core.Nanos(sec)
	if err != nil {
		panic(err)
	}
	return t
}

// modelFaults compiles a fault plan into the engine's tick view.
func modelFaultsOf(t *testing.T, plan *fault.Plan, ports int) *Faults {
	t.Helper()
	m, err := plan.Compile(ports)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ModelFaults(m)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// drained reports whether every remaining flow of lc is at exactly 0.
func drained(lc *Live) bool {
	return !slices.ContainsFunc(lc.Rem, func(b int64) bool { return b != 0 })
}

// TestQuickEngineBookkeeping drives the engine with random admits (priorities
// in {−1, 0, 1, 2}), Steps at event and non-event instants, credit-only
// advances, Removes, re-admissions of removed ids and restores; some seeds add
// fair windows, a fault plan (permanent port failures included) or a trace.
// Five oracles check the incremental bookkeeping against the full
// computations it replaces:
//
//	(a) every pass's order equals policy.Sort followed by a stable sort by
//	    descending Priority, and every cached policy key equals a fresh one;
//	(b) after every Step no live Coflow is drained, and the Coflows retired
//	    within it came out in ascending id order, each drained — together the
//	    output of a retire that scans the whole live set;
//	(c) crediting the whole plan in canonical order (refCredit) leaves Rem,
//	    FlowFinish and Switches identical to the due-set credit;
//	(d) bytes are conserved exactly: Rem never goes negative, and at the end
//	    the bytes delivered plus those stranded plus those removed equal the
//	    whole bytes admitted, as integers;
//	(e) crediting telescopes: on seeds without fair windows, crediting an
//	    advance [a, c) as [a, b) then [b, c), at a random b, leaves Rem,
//	    FlowFinish and Switches identical to the whole credit. Fair windows
//	    water-fill each credit window, so they are split-dependent by design.
func TestQuickEngineBookkeeping(t *testing.T) {
	shapes := map[string]int{}
	for seed := int64(0); seed < bookkeepingSeeds; seed++ {
		for shape, n := range runBookkeepingScenario(t, seed) {
			shapes[shape] += n
		}
	}
	// A draw that never reaches a path would pass vacuously.
	for _, shape := range []string{"retired", "no whole byte", "stranded", "fair windows",
		"fair windows with a permanent failure", "faults", "removed", "re-admitted", "restored",
		"keys cached", "classes", "split"} {
		if shapes[shape] == 0 {
			t.Errorf("no scenario exercised %q", shape)
		}
	}
}

func runBookkeepingScenario(t *testing.T, seed int64) map[string]int {
	rng := rand.New(rand.NewSource(seed))
	shapes := map[string]int{}
	ports := 3 + rng.Intn(8)
	sink := &testSink{t: t}
	cfg := Config{Ports: ports, LinkBps: 1e9, Delta: ns(0.001 + 0.01*rng.Float64()), Sink: sink}
	switch seed % 3 {
	case 0:
		cfg.Policy = core.ShortestFirst{LinkBps: cfg.LinkBps}
	case 1:
		cfg.Policy = core.FIFO{}
	default:
		class := map[int]int{}
		for id := 1; id <= 300; id++ {
			class[id] = rng.Intn(3)
		}
		cfg.Policy = core.PriorityClasses{Class: class, Within: core.ShortestFirst{LinkBps: cfg.LinkBps}}
	}
	if seed%4 == 1 {
		cfg.Fair = &core.FairWindows{N: ports, T: ns(0.3 + rng.Float64()), Tau: ns(0.05)}
		shapes["fair windows"]++
	}
	// Every seed observes, for the delivered-bytes counter of oracle (d);
	// some also trace, exercising the event paths.
	cfg.Obs = obs.New()
	if seed%7 == 3 {
		cfg.Obs = obs.NewWith(obs.NewRegistry(), &obs.SliceSink{})
	}
	e := New(cfg, 0)
	// refFaults and splitFaults are further models of the same plan. Only
	// credit consults a model's state (setup attempts), and refCredit and the
	// split credit make the same calls in the same order, so all stay in
	// lockstep.
	var refFaults, splitFaults *Faults
	if seed%5 == 2 {
		plan := &fault.Plan{Seed: seed}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			pf := fault.PortFailure{Port: rng.Intn(ports), At: 0.05 + 0.5*rng.Float64(), Duration: 0.02 + 0.2*rng.Float64()}
			if rng.Intn(4) == 0 {
				pf.Duration = 0 // permanent
				if cfg.Fair != nil {
					shapes["fair windows with a permanent failure"]++
				}
			}
			plan.PortFailures = append(plan.PortFailures, pf)
		}
		if rng.Intn(2) == 0 {
			plan.SetupFailProb = 0.2
			plan.FailFirstSetups = rng.Intn(3)
		}
		if rng.Intn(2) == 0 {
			plan.DegradedLinkProb = 0.3
		}
		e.SetFaults(modelFaultsOf(t, plan, ports))
		refFaults, splitFaults = modelFaultsOf(t, plan, ports), modelFaultsOf(t, plan, ports)
		shapes["faults"]++
	}

	livePasses := 0 // keys a pass that recomputed every key would compute
	var admitted, removedRem int64
	replan := func() {
		if err := e.Replan(); err != nil {
			t.Fatalf("seed %d: replan at %v: %v", seed, e.Now(), err)
		}
		livePasses += e.Len()
		checkOrder(t, seed, e)
	}
	advance := func(to int64, step bool) {
		from := e.now
		ref := refClone(e, refFaults)
		if len(ref.live) > 0 {
			refCredit(ref, from, to)
		}
		var sp *Engine
		if cfg.Fair == nil && to > from && len(e.live) > 0 {
			// The advance never passes an event, so no fault boundary lies
			// strictly inside the window and crediting alone is compared.
			sp = refClone(e, splitFaults)
			mid := from + int64(rng.Float64()*float64(to-from))
			sp.credit(from, mid)
			sp.credit(mid, to)
			shapes["split"]++
		}
		sink.retired = sink.retired[:0]
		if step {
			e.Step(to)
		} else {
			e.Credit(to)
		}
		for i, lc := range sink.retired {
			if i > 0 && sink.retired[i-1].ID >= lc.ID {
				t.Fatalf("seed %d: retired %d after %d", seed, lc.ID, sink.retired[i-1].ID)
			}
			shapes["retired"]++
			if lc.Stranded {
				shapes["stranded"]++
			}
		}
		if step {
			for _, lc := range e.live {
				if drained(lc) {
					t.Fatalf("seed %d: coflow %d drained but live after Step(%v)", seed, lc.ID, to)
				}
			}
		}
		checkCredit(t, seed, ref, e, sink.retired)
		if sp != nil {
			checkCredit(t, seed, sp, e, sink.retired)
		}
		for _, lc := range e.live {
			if slices.ContainsFunc(lc.Rem, func(b int64) bool { return b < 0 }) {
				t.Fatalf("seed %d: coflow %d has negative Rem %v", seed, lc.ID, lc.Rem)
			}
		}
	}

	// Ids are drawn out of arrival order, and sizes from a few values on half
	// the seeds, so policy keys tie and the (Arrival, ID) tie-breaks matter.
	ids := rng.Perm(300)
	coarse := rng.Intn(2) == 0
	var removed []int
	admit := func() {
		id := 1 + ids[0]
		if k := len(removed); k > 0 && rng.Intn(3) == 0 && !slices.ContainsFunc(e.plan, func(r core.Reservation) bool {
			return r.CoflowID == removed[k-1]
		}) {
			// The id is free once no circuit of its removed holder is
			// planned: the engine keys circuits by Coflow id.
			id, removed = removed[k-1], removed[:k-1]
			shapes["re-admitted"]++
		} else {
			ids = ids[1:]
		}
		var flows []coflow.Flow
		tiny := rng.Intn(12) == 0
		whole := int64(0)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b := 1e5 + 2e7*rng.Float64()
			switch {
			case coarse:
				b = 5e6 * float64(1+rng.Intn(3))
			case tiny:
				b = 0.4 // rounds to no whole byte
			case rng.Intn(8) == 0:
				b = 0
			}
			flows = append(flows, coflow.Flow{Src: rng.Intn(ports), Dst: rng.Intn(ports), Bytes: b})
			whole += int64(math.Round(b))
		}
		prio := rng.Intn(4) - 1
		if prio != 0 {
			shapes["classes"]++
		}
		if e.Admit(coflow.New(id, core.Seconds(e.now), flows), e.now, prio) {
			admitted += whole
		} else {
			if whole != 0 {
				t.Fatalf("seed %d: coflow %d with %d whole bytes refused", seed, id, whole)
			}
			shapes["no whole byte"]++
		}
	}

	for action := 0; action < 100; action++ {
		switch r := rng.Intn(20); {
		case r < 8:
			for n := 1 + rng.Intn(2); n > 0; n-- {
				admit()
			}
			replan()
		case r < 13: // an event instant
			if te := e.NextEvent(); te != core.Forever {
				advance(te, true)
				replan()
			}
		case r < 16: // an instant between events, as an arrival would be
			te := min(e.NextEvent(), e.now+ns(1))
			advance(e.now+int64(rng.Float64()*float64(te-e.now)), true)
			replan()
		case r < 17: // a credit-only advance, as the daemon makes
			te := min(e.NextEvent(), e.now+ns(1))
			advance(e.now+int64(rng.Float64()*float64(te-e.now)), false)
		case r < 19:
			if ids := e.SortedIDs(); len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				for _, b := range e.Remove(id).Rem {
					removedRem += b
				}
				removed = append(removed, id)
				shapes["removed"]++
				replan()
			}
		default:
			if e.faults == nil {
				e = restored(e, cfg)
				shapes["restored"]++
				replan()
			}
		}
	}
	for n := 0; e.Len() > 0; n++ {
		te := e.NextEvent()
		if te == core.Forever || n > 5000 {
			t.Fatalf("seed %d: %d coflows never finish (next event %v)", seed, e.Len(), te)
		}
		advance(te, true)
		replan()
	}
	if _, keyed := cfg.Policy.(core.KeyPolicy); keyed && cfg.Obs.OrderKeys.Load() < int64(livePasses) {
		shapes["keys cached"]++
	}
	// Oracle (d). Delivered bytes are whole, so their float sum is exact.
	if delivered := int64(cfg.Obs.BytesDelivered.Load()); delivered+sink.stranded+removedRem != admitted {
		t.Fatalf("seed %d: delivered %d + stranded %d + removed %d != admitted %d",
			seed, delivered, sink.stranded, removedRem, admitted)
	}
	return shapes
}

// TestQuickPlanCacheMatchesFullReplan holds the plan cache to the full
// rebuild it stands in for: two engines — one replaying certified cache
// entries, one re-running IntraCoflow for every live Coflow — take the same
// random admits (priorities in {−1, 0, 1, 2}), event and non-event steps,
// removes and restores, under all three intra orders and sometimes fair
// windows, and after every Replan their plans and planned finishes must be
// bit-identical. The test fails unless both kinds of hit the containment
// certificate adds were drawn: a suffix hit (a schedule under way continued
// from its unstarted rest) and a hit with nothing started whose table showed
// occupancy the snapshot lacked — one the exact context match used to
// reject. The suffix hits it finds must also equal sched.intra_continued.
func TestQuickPlanCacheMatchesFullReplan(t *testing.T) {
	var suffix, contained int64
	for seed := int64(0); seed < 120; seed++ {
		s, c := runPlanCacheLockstep(t, seed)
		suffix += s
		contained += c
	}
	t.Logf("%d suffix hits, %d containment-only hits", suffix, contained)
	if suffix == 0 || contained == 0 {
		t.Fatalf("drew %d suffix hits and %d containment-only hits; want both", suffix, contained)
	}
}

func runPlanCacheLockstep(t *testing.T, seed int64) (suffix, contained int64) {
	rng := rand.New(rand.NewSource(seed))
	ports := 3 + rng.Intn(6)
	cfg := Config{Ports: ports, LinkBps: 1e9, Delta: ns(0.001 + 0.01*rng.Float64()), Order: core.Order(seed % 3), Seed: seed}
	switch rng.Intn(3) {
	case 0:
		cfg.Policy = core.ShortestFirst{LinkBps: cfg.LinkBps}
	case 1:
		cfg.Policy = core.FIFO{}
	default:
		class := map[int]int{}
		for id := 1; id <= 200; id++ {
			class[id] = rng.Intn(3)
		}
		cfg.Policy = core.PriorityClasses{Class: class, Within: core.ShortestFirst{LinkBps: cfg.LinkBps}}
	}
	if rng.Intn(4) == 0 {
		cfg.Fair = &core.FairWindows{N: ports, T: ns(0.3 + rng.Float64()), Tau: ns(0.05)}
	}
	o := obs.New()
	ic, fc := cfg, cfg
	ic.Obs, ic.Sink, fc.Sink = o, &testSink{t: t}, &testSink{t: t}
	inc, full := New(ic, 0), New(fc, 0)
	inc.incremental, full.incremental = true, false

	replan := func() {
		// Entries are recognised across the pass by their flows buffer, which
		// a replay keeps and a recomputation replaces.
		before := map[*coflow.Flow]int{}
		for i := range inc.cache {
			if ce := &inc.cache[i]; cap(ce.flows) > 0 {
				before[&ce.flows[:1][0]] = len(ce.res)
			}
		}
		continued := o.IntraContinued.Load()
		if err := inc.Replan(); err != nil {
			t.Fatalf("seed %d: incremental replan at %d: %v", seed, inc.Now(), err)
		}
		if err := full.Replan(); err != nil {
			t.Fatalf("seed %d: full replan at %d: %v", seed, full.Now(), err)
		}
		if !slices.Equal(inc.Plan(), full.Plan()) {
			t.Fatalf("seed %d t=%d: plans differ\nincremental: %+v\nfull:        %+v", seed, inc.Now(), inc.Plan(), full.Plan())
		}
		for id, lc := range full.live {
			if got := inc.Lookup(id); got == nil || got.Finish != lc.Finish {
				t.Fatalf("seed %d: coflow %d planned finish differs from the full rebuild's %d", seed, id, lc.Finish)
			}
		}
		var found int64
		for i := range inc.cache {
			ce := &inc.cache[i]
			if cap(ce.flows) == 0 {
				continue
			}
			n, hit := before[&ce.flows[:1][0]]
			switch {
			case !hit:
			case len(ce.res) < n:
				found++
			case !contextUnchanged(inc, ce):
				contained++
			}
		}
		if d := o.IntraContinued.Load() - continued; d != found {
			t.Fatalf("seed %d: sched.intra_continued rose by %d, %d entries were continued", seed, d, found)
		}
		suffix += found
	}
	step := func(to int64) {
		inc.Step(to)
		full.Step(to)
	}

	ids := rng.Perm(200)
	for action := 0; action < 80; action++ {
		switch r := rng.Intn(20); {
		case r < 8:
			for n := 1 + rng.Intn(2); n > 0; n-- {
				id := 1 + ids[0]
				ids = ids[1:]
				var flows []coflow.Flow
				for n := 1 + rng.Intn(5); n > 0; n-- {
					flows = append(flows, coflow.Flow{Src: rng.Intn(ports), Dst: rng.Intn(ports), Bytes: 1e5 + 2e7*rng.Float64()})
				}
				prio := rng.Intn(4) - 1
				inc.Admit(coflow.New(id, core.Seconds(inc.now), flows), inc.now, prio)
				full.Admit(coflow.New(id, core.Seconds(full.now), flows), full.now, prio)
			}
			replan()
		case r < 13:
			if te := inc.NextEvent(); te != core.Forever {
				step(te)
				replan()
			}
		case r < 17: // an arrival-like instant between events
			te := min(inc.NextEvent(), inc.now+ns(1))
			step(inc.now + int64(rng.Float64()*float64(te-inc.now)))
			replan()
		case r < 19:
			if live := inc.SortedIDs(); len(live) > 0 {
				id := live[rng.Intn(len(live))]
				inc.Remove(id)
				full.Remove(id)
				replan()
			}
		default:
			i, f := restored(inc, inc.cfg), restored(full, full.cfg)
			i.incremental, f.incremental = true, false
			inc, full = i, f
			replan()
		}
		if inc.NextEvent() != full.NextEvent() {
			t.Fatalf("seed %d: next events %d and %d", seed, inc.NextEvent(), full.NextEvent())
		}
	}
	return suffix, contained
}

// contextUnchanged reports whether, when the pass certified the entry, the
// table's visible occupancy on the entry's ports below its horizon was
// exactly its snapshot. That table is rebuilt from the finished pass: the
// locked circuits, then the plans of the Coflows ordered ahead of the
// entry's.
func contextUnchanged(e *Engine, ce *planCacheEntry) bool {
	prt := core.NewPRT(e.cfg.Ports)
	for _, r := range e.plan {
		if r.Start < e.now {
			prt.Reserve(r)
		}
	}
	for _, it := range e.scratch.ranked {
		if it.lc.ID == ce.id {
			break
		}
		for _, r := range e.plan {
			if r.CoflowID == it.lc.ID && r.Start >= e.now {
				prt.Reserve(r)
			}
		}
	}
	start := max(e.now, e.live[ce.id].Arrival)
	ins, outs := flowPorts(ce.flows, nil, nil)
	visible := slices.DeleteFunc(slices.Clone(ce.ctx), func(sp core.PortSpan) bool { return sp.End <= start })
	return slices.Equal(prt.SpansOn(start, ce.horizon, ins, outs, nil), visible)
}

// checkOrder is oracle (a): the last pass's order against the policy's own
// Sort plus a stable descending-Priority sort, on headers built fresh from
// Rem, and every cached key against a fresh one.
func checkOrder(t *testing.T, seed int64, e *Engine) {
	t.Helper()
	headers := make([]*coflow.Coflow, 0, len(e.live))
	for _, lc := range e.live {
		headers = append(headers, remainderFrom(&coflow.Coflow{}, lc, nil))
	}
	want := e.policy.Sort(headers)
	slices.SortStableFunc(want, func(a, b *coflow.Coflow) int {
		return cmp.Compare(e.live[b.ID].Priority, e.live[a.ID].Priority)
	})
	got := e.scratch.ranked
	if len(got) != len(want) {
		t.Fatalf("seed %d: pass ordered %d coflows, %d live", seed, len(got), len(want))
	}
	for i := range want {
		if got[i].tmp.ID != want[i].ID {
			t.Fatalf("seed %d t=%v: pass order position %d is coflow %d, policy order gives %d",
				seed, e.now, i, got[i].tmp.ID, want[i].ID)
		}
	}
	if kp, ok := e.policy.(core.KeyPolicy); ok {
		for _, h := range headers {
			lc := e.live[h.ID]
			if k := kp.Key(h); !lc.keyOK || math.Float64bits(lc.key) != math.Float64bits(k) {
				t.Fatalf("seed %d: coflow %d cached key %v (valid %v), fresh key %v", seed, lc.ID, lc.key, lc.keyOK, k)
			}
		}
	}
}

// checkCredit is oracle (c): every Coflow the reference credited must match
// the engine's, whether it is still live or retired in the same advance. A
// flow quarantined after crediting is absent from the engine's Keys and is
// skipped.
func checkCredit(t *testing.T, seed int64, ref, e *Engine, retired []*Live) {
	t.Helper()
	byID := maps.Clone(e.live)
	for _, lc := range retired {
		byID[lc.ID] = lc
	}
	for id, r := range ref.live {
		g := byID[id]
		if g == nil {
			t.Fatalf("seed %d: coflow %d vanished", seed, id)
		}
		if r.Switches != g.Switches {
			t.Fatalf("seed %d: coflow %d switches %d, reference %d", seed, id, g.Switches, r.Switches)
		}
		if !maps.Equal(r.FlowFinish, g.FlowFinish) {
			t.Fatalf("seed %d: coflow %d flow finishes %v, reference %v", seed, id, g.FlowFinish, r.FlowFinish)
		}
		for ri, k := range r.Keys {
			if gi, ok := g.Index(k); ok && r.Rem[ri] != g.Rem[gi] {
				t.Fatalf("seed %d: coflow %d flow %v Rem %v, reference %v", seed, id, k, g.Rem[gi], r.Rem[ri])
			}
		}
	}
}

// cloneLive copies the exported state of a live Coflow, as a checkpoint
// would: the unexported caches start from their zero values.
func cloneLive(lc *Live) *Live {
	return &Live{
		ID: lc.ID, Arrival: lc.Arrival, Priority: lc.Priority, Bytes: lc.Bytes,
		Keys: slices.Clone(lc.Keys), Rem: slices.Clone(lc.Rem),
		FlowFinish: maps.Clone(lc.FlowFinish), Finish: lc.Finish, Switches: lc.Switches,
		Stranded: lc.Stranded, StrandedBytes: lc.StrandedBytes,
	}
}

// refClone returns a detached copy of the engine's crediting state — clock,
// live set and plan — with no observer or sink, crediting against faults.
func refClone(e *Engine, faults *Faults) *Engine {
	ref := &Engine{cfg: e.cfg, now: e.now, live: map[int]*Live{}, plan: slices.Clone(e.plan), faults: faults}
	ref.cfg.Obs, ref.cfg.Prof, ref.cfg.Sink = nil, nil, nil
	for id, lc := range e.live {
		ref.live[id] = cloneLive(lc)
	}
	return ref
}

// restored rebuilds the engine from a checkpoint of its exported state, the
// way the daemon recovers: the plan in canonical order, zero-valued caches.
func restored(e *Engine, cfg Config) *Engine {
	var live []*Live
	for _, id := range e.SortedIDs() {
		live = append(live, cloneLive(e.live[id]))
	}
	plan := slices.Clone(e.plan)
	slices.SortFunc(plan, core.CompareReservations)
	r := New(cfg, 0)
	r.Restore(e.now, live, plan, e.passes)
	return r
}

// refCredit is crediting as a whole-plan walk: every plan entry in
// core.CompareReservations order, with credit's setup, delivery and drain
// rules and no observer output. Entries that start after to are visited too.
func refCredit(e *Engine, from, to int64) {
	if to <= from {
		return
	}
	slices.SortFunc(e.plan, core.CompareReservations)
	for idx := range e.plan {
		r := &e.plan[idx]
		lc := e.live[r.CoflowID]
		if r.Start >= from && r.Start < to {
			if lc != nil {
				lc.Switches++
			}
			if e.faults != nil {
				e.establishFaulty(r)
			}
		}
		if lc == nil {
			continue
		}
		bps := e.rate(r)
		before := r.Delivered(from, bps)
		d := r.Delivered(to, bps) - before
		key := fabric.FlowKey{Src: r.In, Dst: r.Out}
		ki, ok := lc.Index(key)
		if d <= 0 || !ok || lc.Rem[ki] == 0 {
			continue
		}
		rem := lc.Rem[ki]
		if rem > d {
			lc.Rem[ki] = rem - d
			continue
		}
		lc.Rem[ki] = 0
		if _, done := lc.FlowFinish[key]; !done {
			lc.FlowFinish[key] = min(r.End, r.TransmitStart()+core.ProcTicks(before+rem, bps))
		}
	}
	if e.cfg.Fair != nil {
		e.creditFairWindows(from, to)
	}
}

// TestEngineContinuationIsByteExact: when a shortened circuit locks, the next
// pass's IntraCoflow input for its flow is the whole-byte remainder the
// circuit leaves, and the search places exactly the continuation the pass
// that shortened it chained — so the Coflow continues from the plan cache,
// and the Coflow planned around that continuation replays from it. Coflow
// 2's flow 3→2 is cut short by coflow 1's later circuit on output 2; coflow 3
// is planned around 2's continuation on input 3. A fourth arrival on idle
// ports replans while the shortened circuit and coflow 1's first circuit
// hold: coflows 1 and 2 continue from their unstarted reservations, coflow 3
// replays whole, and only coflow 4 runs IntraCoflow. The arrival at 2.107 s
// is one where float-second arithmetic truncates the shortened circuit's
// bytes by one, and so chains a continuation 8 ns shorter than the one
// replanned from the remainder.
func TestEngineContinuationIsByteExact(t *testing.T) {
	o := obs.New()
	e := New(Config{Ports: 6, LinkBps: 1e9, Delta: ns(0.01), Policy: core.FIFO{}, Obs: o, Sink: &testSink{t: t}}, 0)
	if !e.incremental {
		t.Skip("plan cache disabled (SUNFLOW_FULL_REPLAN)")
	}
	t0 := ns(2.107)
	admit := func(id int, at int64, flows ...coflow.Flow) {
		t.Helper()
		e.Step(at)
		if !e.Admit(coflow.New(id, core.Seconds(at), flows), at, 0) {
			t.Fatalf("coflow %d refused", id)
		}
	}
	admit(1, t0, coflow.Flow{Src: 0, Dst: 1, Bytes: 10e6}, coflow.Flow{Src: 0, Dst: 2, Bytes: 5e6})
	admit(2, t0, coflow.Flow{Src: 3, Dst: 2, Bytes: 37e6 + 3})
	admit(3, t0, coflow.Flow{Src: 3, Dst: 0, Bytes: 10e6})
	if err := e.Replan(); err != nil {
		t.Fatal(err)
	}
	var cut core.Reservation
	var chained []core.Reservation
	for _, r := range e.Plan() {
		if r.CoflowID == 2 && r.Start == t0 {
			cut = r
		} else if r.CoflowID == 2 {
			chained = append(chained, r)
		}
	}
	if cut.End-cut.Start >= cut.Setup+core.ProcTicks(37e6+3, 1e9) || len(chained) == 0 {
		t.Fatalf("coflow 2's first circuit %+v is not shortened ahead of a continuation %+v", cut, chained)
	}

	skipped, continued := o.IntraSkipped.Load(), o.IntraContinued.Load()
	// A replay keeps the entry's flows buffer; a recomputation replaces it.
	// (Live.cacheAt is only refreshed at the start of the next pass.)
	buffer := func(id int) *coflow.Flow {
		i := slices.IndexFunc(e.cache, func(ce planCacheEntry) bool { return ce.id == id })
		return &e.cache[i].flows[:1][0]
	}
	buffers := map[int]*coflow.Flow{}
	for _, id := range []int{1, 2, 3} {
		buffers[id] = buffer(id)
	}
	admit(4, t0+ns(0.05), coflow.Flow{Src: 5, Dst: 5, Bytes: 1e6})
	if err := e.Replan(); err != nil {
		t.Fatal(err)
	}
	if got := e.Lookup(2).excl; len(got) != 1 || got[0] != cut.Bytes-cut.Delivered(e.now, 1e9) {
		t.Fatalf("locked exclusion %v, want the shortened circuit's undelivered %d bytes", got, cut.Bytes-cut.Delivered(e.now, 1e9))
	}
	ce := e.cache[e.Lookup(2).cacheAt]
	if want := []coflow.Flow{{Src: 3, Dst: 2, Bytes: float64(37e6 + 3 - cut.Bytes)}}; !slices.Equal(ce.flows, want) {
		t.Fatalf("coflow 2 planned from %v, want the whole-byte remainder %v", ce.flows, want)
	}
	if !slices.Equal(ce.res, chained) {
		t.Fatalf("coflow 2 continuation %+v, chained %+v", ce.res, chained)
	}
	c3 := e.cache[e.Lookup(3).cacheAt]
	if !slices.Contains(c3.ctx, core.PortSpan{Start: chained[0].Start, End: chained[0].End, Port: 3}) {
		t.Fatalf("coflow 3's certificate %+v does not cover coflow 2's continuation", c3.ctx)
	}
	for id, buf := range buffers {
		if buffer(id) != buf {
			t.Errorf("coflow %d was rescheduled, want a plan-cache hit", id)
		}
	}
	if hits := o.IntraSkipped.Load() - skipped; hits != 3 {
		t.Fatalf("%d plan-cache hits, want 3 (coflows 1 and 2 continued, coflow 3 planned around the continuation)", hits)
	}
	if n := o.IntraContinued.Load() - continued; n != 2 {
		t.Fatalf("%d continued hits, want 2 (coflows 1 and 2)", n)
	}
}
