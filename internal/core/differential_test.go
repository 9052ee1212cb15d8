package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
)

// This file is the differential harness for the event-driven fast path: every
// property drives the fast and the scan-based reference implementations over
// the same inputs and requires bit-identical results — reflect.DeepEqual on
// whole Schedule structs (reservation sequences, and with them every flow's
// finish, and Finish instants) and equality of the port timelines left
// behind. Determinism is load-bearing for the fault subsystem's
// reproducibility guarantees, so exact equality, not approximate equality,
// is the bar.

// quickCount is the iteration floor the acceptance criteria require for the
// seeded differential properties.
const quickCount = 200

// prtScenario deterministically prepares one PRT for the given seed:
// preloaded reservations, optional blackout windows and optional fault-style
// Block calls (including permanent +Inf outages). Called twice per trial, it
// yields two independently built but identical tables.
func prtScenario(rng *rand.Rand, ports int) *PRT {
	prt := NewPRT(ports)
	blackout := rng.Intn(2) == 0
	if blackout {
		fw := FairWindows{N: ports, T: ns(0.5 + rng.Float64()), Tau: ns(0.01 + 0.05*rng.Float64())}
		prt.SetBlackout(fw)
	}
	// Preloads: short reservations scattered over the near future, placed
	// with TryReserve so colliding draws are simply skipped.
	for k, n := 0, rng.Intn(6); k < n; k++ {
		start := ns(rng.Float64() * 2)
		_ = prt.TryReserve(Reservation{
			CoflowID: -100 - k,
			In:       rng.Intn(ports),
			Out:      rng.Intn(ports),
			Start:    start,
			End:      start + ns(0.05+rng.Float64()*0.5),
			Setup:    ns(0.01),
		})
	}
	// Fault-style outage blocks, occasionally permanent. A demand on a port
	// down for good surfaces as ErrStalled in both implementations: with no
	// blackout the next event is Forever, and under a blackout stuck()
	// detects a blackout-end round that places nothing with no release
	// pending.
	for k, n := 0, rng.Intn(3); k < n; k++ {
		start := ns(rng.Float64() * 2)
		end := start + ns(0.1+rng.Float64())
		if rng.Intn(8) == 0 {
			end = Forever
		}
		prt.Block(rng.Intn(ports), start, end)
	}
	return prt
}

func randomOptions(rng *rand.Rand) Options {
	opts := Options{
		LinkBps: gbps,
		Delta:   ns([]float64{0, 0.001, 0.01}[rng.Intn(3)]),
		Start:   ns(rng.Float64() * 2),
		Order:   Order(rng.Intn(3)),
		Seed:    rng.Int63(),
	}
	if rng.Intn(4) == 0 {
		opts.Quantum = ns(0.001 + 0.01*rng.Float64())
	}
	return opts
}

// permanentOutage reports whether some port of p is blocked for good: a
// timeline's last interval ends at Forever.
func permanentOutage(p *PRT) bool {
	for i := range p.in {
		if iv := p.in[i].iv; len(iv) > 0 && iv[len(iv)-1].end == Forever {
			return true
		}
	}
	return false
}

// samePRT reports whether two tables hold identical reservations, bit for
// bit.
func samePRT(a, b *PRT) bool {
	if a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if !slices.Equal(a.in[i].iv, b.in[i].iv) || !slices.Equal(a.out[i].iv, b.out[i].iv) {
			return false
		}
	}
	return true
}

// sameSchedule is exact equality of schedules. reflect.DeepEqual covers
// the reservation slice — which FlowFinish derives each flow's finish from —
// and every field.
func sameSchedule(a, b *Schedule) bool { return reflect.DeepEqual(a, b) }

// TestQuickFastMatchesReferenceIntra is the core acceptance property: over
// random Coflows, preloads, blackouts and fault-degraded tables,
// the event-driven fast path and the scan-based reference produce
// bit-identical Schedules and leave bit-identical PRTs behind. The trials
// draw the table shapes the fast path's bitsets must handle, and the test
// fails if any shape goes undrawn:
//   - wide: up to ports² demands on 12–24 ports, so the wake bitset spans
//     several words;
//   - many ports: sparse Coflows on 65–200 ports, so each port's peer mask
//     and the free bitsets span several words;
//   - primed: 1–2 Coflows scheduled first, as InterCoflow does, so touched
//     ports carry commitments starting after the search start (free bits go
//     stale) and back-to-back intervals;
//   - adjacent: a commitment starting at, or one tick after, the end of the
//     one before it on a touched port;
//   - a release at a blackout end: a commitment on a touched port ending
//     exactly where a blackout window does, so a round that examines every
//     demand also refreshes a released port;
//   - a permanent outage under a blackout: a +Inf Block on a table with
//     blackout windows, the shape only stuck() ends.
func TestQuickFastMatchesReferenceIntra(t *testing.T) {
	var wide, manyPorts, primed, adjacent, blackoutRelease, permanentBlackout int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 3 + rng.Intn(8)
		maxFlows := 2 * ports
		switch rng.Intn(4) {
		case 0:
			ports = 12 + rng.Intn(13)
			maxFlows = ports * ports
		case 1:
			ports = 65 + rng.Intn(136)
			maxFlows = ports
			manyPorts++
		}
		c := randomCoflow(rng, ports, maxFlows)
		if len(c.Flows) > 128 {
			wide++
		}
		opts := randomOptions(rng)

		build := rand.New(rand.NewSource(seed + 1))
		fastPRT := prtScenario(rand.New(rand.NewSource(build.Int63())), ports)
		build = rand.New(rand.NewSource(seed + 1))
		refPRT := prtScenario(rand.New(rand.NewSource(build.Int63())), ports)
		if fastPRT.blackout != nil && permanentOutage(fastPRT) {
			permanentBlackout++
		}

		if rng.Intn(2) == 0 {
			primed++
			ok, stalled := primeTables(t, seed, rng, fastPRT, refPRT, c, opts)
			if !ok || stalled {
				return ok
			}
			if adjacentPair(rng, fastPRT, refPRT, c, opts) {
				adjacent++
			}
			if releaseAtBlackoutEnd(rng, fastPRT, refPRT, c, opts) {
				blackoutRelease++
			}
		}

		fast, fastErr := IntraCoflow(fastPRT, c, opts)
		ref, _, refErr := intraReference(refPRT, c, opts)

		if (fastErr == nil) != (refErr == nil) {
			t.Logf("seed %d: error divergence fast=%v ref=%v", seed, fastErr, refErr)
			return false
		}
		if fastErr != nil {
			return fastErr.Error() == refErr.Error()
		}
		if !sameSchedule(fast, ref) {
			t.Logf("seed %d: schedules diverge\nfast: %+v\nref:  %+v", seed, fast, ref)
			return false
		}
		if !samePRT(fastPRT, refPRT) {
			t.Logf("seed %d: PRTs diverge", seed)
			return false
		}
		for i, r := range fast.Reservations {
			if f := c.Flows[fast.FlowAt[i]]; f.Src != r.In || f.Dst != r.Out {
				t.Logf("seed %d: reservation %+v names flow %+v", seed, r, f)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		n    int
	}{
		{"a Coflow with more than 128 demands", wide},
		{"more than 64 ports", manyPorts},
		{"a primed table", primed},
		{"an adjacent commitment", adjacent},
		{"a release at a blackout end", blackoutRelease},
		{"a permanent outage under a blackout", permanentBlackout},
	} {
		if shape.n == 0 {
			t.Errorf("no trial drew %s", shape.name)
		}
	}
}

// TestQuickIntraSuffixInvariance is the plan cache's continuation
// certificate (DESIGN.md §7) on one search. R = IntraCoflow(T0, F0, s0) runs
// on a prtScenario table (blackouts, outage blocks, quantum). At
// an instant now — a reservation's Start, a reservation's End, or a random
// instant — the reservations starting before now form the prefix P = R[:k].
// A fresh search over T0 ∪ P ∪ X on F0 − P from max(s0, now), where X are
// random intervals that fit T0 ∪ R and may straddle now, must place exactly
// R[k:] under OrderedPort, and under every order when k = 0. With k > 0,
// SortedDemand re-sorts by the remaining demand and RandomOrder reshuffles
// the remaining subset, so either can reorder the demands left; those
// mismatches are logged as counts, not asserted.
func TestQuickIntraSuffixInvariance(t *testing.T) {
	var prefix, noPrefix, extras, blackout int
	var broken, draws [3]int // k > 0 trials per order, and their mismatches
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 3 + rng.Intn(8)
		c := randomCoflow(rng, ports, 2*ports)
		opts := randomOptions(rng)
		tableSeed := rng.Int63()
		for _, order := range []Order{OrderedPort, RandomOrder, SortedDemand} {
			opts.Order = order
			tr, ok := suffixTrial(rng, c, opts, tableSeed, ports)
			if !ok {
				return true // a pair blocked for good: no schedule to continue
			}
			if tr.k > 0 && order != OrderedPort {
				draws[order]++
				if !tr.match {
					broken[order]++
				}
				continue
			}
			if !tr.match {
				t.Logf("seed %d, %v: continuation from k=%d of %d diverges\n got:  %+v\n want: %+v",
					seed, order, tr.k, len(tr.want)+tr.k, tr.got, tr.want)
				return false
			}
			if order != OrderedPort {
				continue
			}
			if tr.k > 0 {
				prefix++
			} else {
				noPrefix++
			}
			if tr.extras > 0 {
				extras++
			}
			if tr.blackout {
				blackout++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		n    int
	}{
		{"a non-empty started prefix", prefix},
		{"an empty started prefix", noPrefix},
		{"an added interval", extras},
		{"a blackout", blackout},
	} {
		if shape.n == 0 {
			t.Errorf("no OrderedPort trial drew %s", shape.name)
		}
	}
	for _, order := range []Order{RandomOrder, SortedDemand} {
		t.Logf("%v: %d of %d continuations with a started prefix differ from the suffix", order, broken[order], draws[order])
	}
}

// suffixResult is one continuation trial: the reservations the fresh search
// placed and the suffix R[k:] it had to reproduce.
type suffixResult struct {
	got, want []Reservation
	k, extras int
	blackout  bool
	match     bool
}

// suffixTrial runs one TestQuickIntraSuffixInvariance trial for c under
// opts on the table tableSeed builds. ok is false when the first search
// stalls.
func suffixTrial(rng *rand.Rand, c *coflow.Coflow, opts Options, tableSeed int64, ports int) (tr suffixResult, ok bool) {
	t0 := prtScenario(rand.New(rand.NewSource(tableSeed)), ports)
	r, err := IntraCoflow(t0, c, opts)
	if err != nil {
		return tr, false
	}
	res := r.Reservations
	now := opts.Start + int64(rng.Float64()*float64(r.Finish-opts.Start+1))
	switch rng.Intn(3) {
	case 0:
		now = res[rng.Intn(len(res))].Start
	case 1:
		now = res[rng.Intn(len(res))].End
	}
	for tr.k < len(res) && res[tr.k].Start < now {
		tr.k++
	}

	t1 := prtScenario(rand.New(rand.NewSource(tableSeed)), ports)
	tr.blackout = t1.blackout != nil
	started := map[[2]int]int64{}
	for _, p := range res[:tr.k] {
		t1.Reserve(p)
		started[[2]int{p.In, p.Out}] += p.Bytes
	}
	// X: t0 holds T0 ∪ R and the intervals added so far, so whatever it
	// accepts overlaps none of them.
	for n := rng.Intn(5); n > 0; n-- {
		start := now + ns(2*rng.Float64()-0.5)
		x := Reservation{CoflowID: -300, In: rng.Intn(ports), Out: rng.Intn(ports), Start: start, End: start + ns(0.01+0.5*rng.Float64()), Setup: opts.Delta}
		if t0.TryReserve(x) == nil {
			t1.Reserve(x)
			tr.extras++
		}
	}
	var rest []coflow.Flow
	for _, fl := range c.Flows {
		if b := int64(math.Round(fl.Bytes)) - started[[2]int{fl.Src, fl.Dst}]; b > 0 {
			rest = append(rest, coflow.Flow{Src: fl.Src, Dst: fl.Dst, Bytes: float64(b)})
		}
	}
	o := opts
	o.Start = max(opts.Start, now)
	got, err := IntraCoflow(t1, &coflow.Coflow{ID: c.ID, Flows: rest}, o)
	tr.want = res[tr.k:]
	if err != nil {
		return tr, true
	}
	tr.got = got.Reservations
	finish := o.Start
	for _, q := range tr.want {
		finish = max(finish, q.End)
	}
	tr.match = slices.Equal(tr.got, tr.want) && got.Finish == finish
	return tr, true
}

// primeTables schedules 1–2 random Coflows on both tables before the Coflow
// under test — the fast path on fast, the reference on ref — each starting at
// or before opts.Start, as an InterCoflow pass would place earlier Coflows.
// ok is false when the two diverge; stalled reports that both failed alike.
func primeTables(t *testing.T, seed int64, rng *rand.Rand, fast, ref *PRT, c *coflow.Coflow, opts Options) (ok, stalled bool) {
	for k, n := 0, 1+rng.Intn(2); k < n; k++ {
		prior := randomCoflow(rng, fast.Ports(), max(2, len(c.Flows)))
		popts := opts
		popts.Start = ns(Seconds(opts.Start) * rng.Float64())
		fs, fErr := IntraCoflow(fast, prior, popts)
		rs, _, rErr := intraReference(ref, prior, popts)
		if fErr != nil || rErr != nil {
			if fmt.Sprint(fErr) != fmt.Sprint(rErr) {
				t.Logf("seed %d: priming error divergence fast=%v ref=%v", seed, fErr, rErr)
				return false, false
			}
			return true, true
		}
		if !sameSchedule(fs, rs) {
			t.Logf("seed %d: priming schedule %d diverges", seed, k)
			return false, false
		}
	}
	return true, false
}

// releaseAtBlackoutEnd reserves, on both tables with a blackout installed, a
// commitment on an output port of c that ends exactly at the end of a
// blackout window after opts.Start. It reports whether the commitment landed.
func releaseAtBlackoutEnd(rng *rand.Rand, fast, ref *PRT, c *coflow.Coflow, opts Options) bool {
	if fast.blackout == nil {
		return false
	}
	f := c.Flows[rng.Intn(len(c.Flows))]
	end := fast.blackout.NextEnd(opts.Start + ns(rng.Float64()))
	r := Reservation{CoflowID: -202, In: rng.Intn(fast.Ports()), Out: f.Dst, Start: end - ns(0.05+0.3*rng.Float64()), End: end, Setup: ns(0.01)}
	if fast.TryReserve(r) != nil {
		return false
	}
	ref.Reserve(r)
	return true
}

// adjacentPair reserves, on both tables, two commitments back to back on an
// input port of c — the second starting at the first's end or one tick
// after it — both starting after opts.Start. It reports whether the pair
// landed (on both tables alike; a collision with existing commitments skips
// it).
func adjacentPair(rng *rand.Rand, fast, ref *PRT, c *coflow.Coflow, opts Options) bool {
	f := c.Flows[rng.Intn(len(c.Flows))]
	start := opts.Start + ns(0.01+rng.Float64())
	mid := start + ns(0.02+0.2*rng.Float64())
	next := mid + int64(rng.Float64()*2)
	a := Reservation{CoflowID: -200, In: f.Src, Out: rng.Intn(fast.Ports()), Start: start, End: mid, Setup: ns(0.01)}
	b := Reservation{CoflowID: -201, In: f.Src, Out: rng.Intn(fast.Ports()), Start: next, End: next + ns(0.02+0.2*rng.Float64()), Setup: ns(0.01)}
	// a and b do not overlap, so each need only clear what is there
	// already; the tables are identical, so ref accepts exactly what fast
	// does.
	okA, okB := fast.TryReserve(a) == nil, fast.TryReserve(b) == nil
	_, _ = ref.TryReserve(a), ref.TryReserve(b)
	return okA && okB
}

// TestQuickFastMatchesReferenceInter runs whole inter-Coflow passes — the
// shared-PRT regime where Coflows shorten each other's reservations — and
// requires every schedule in the pass to match bit for bit.
func TestQuickFastMatchesReferenceInter(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 4 + rng.Intn(6)
		var cs []*coflow.Coflow
		for k, n := 0, 2+rng.Intn(6); k < n; k++ {
			c := randomCoflow(rng, ports, ports)
			c.ID = k
			c.Arrival = rng.Float64() * 3
			cs = append(cs, c)
		}
		opts := randomOptions(rng)
		ordered := ShortestFirst{LinkBps: opts.LinkBps}.Sort(cs)

		fastPRT, refPRT := NewPRT(ports), NewPRT(ports)
		fast, fastErr := InterCoflow(fastPRT, ordered, opts)
		ref, refErr := interReference(refPRT, ordered, opts)

		if (fastErr == nil) != (refErr == nil) || len(fast) != len(ref) {
			return false
		}
		for i := range fast {
			if !sameSchedule(fast[i], ref[i]) {
				t.Logf("seed %d: schedule %d diverges", seed, i)
				return false
			}
		}
		return samePRT(fastPRT, refPRT)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemoveExact: satellite guarantee for timeline.remove — a
// TryReserve rollback removes the interval starting exactly at the given
// tick, and a start one tick off removes nothing.
func TestQuickRemoveExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tl timeline
		starts := make([]int64, 0, 8)
		for k := 0; k < 8; k++ {
			s := ns(float64(k) + rng.Float64()*0.5)
			if tl.insert(s, s+ns(0.2), 0) {
				starts = append(starts, s)
			}
		}
		pick := starts[rng.Intn(len(starts))]
		tl.remove(pick + 1)
		if got := len(tl.iv); got != len(starts) {
			t.Logf("seed %d: a start one tick off removed an interval", seed)
			return false
		}
		tl.remove(pick)
		if got := len(tl.iv); got != len(starts)-1 {
			t.Logf("seed %d: remove missed, %d intervals left of %d", seed, got, len(starts))
			return false
		}
		for _, iv := range tl.iv {
			if iv.start == pick {
				return false // removed the wrong one
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
}
