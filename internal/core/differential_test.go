package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunflow/internal/coflow"
)

// This file is the differential harness for the event-driven fast path: every
// property drives the fast and the scan-based reference implementations over
// the same inputs and requires bit-identical results — reflect.DeepEqual on
// whole Schedule structs (reservation sequences, and with them every flow's
// finish, and Finish instants) and on the merged port timelines left behind. Determinism is
// load-bearing for the fault subsystem's reproducibility guarantees, so exact
// equality, not approximate equality, is the bar.

// quickCount is the iteration floor the acceptance criteria require for the
// seeded differential properties.
const quickCount = 200

// prtScenario deterministically prepares one PRT for the given seed:
// preloaded reservations, optional blackout windows, optional fault-style
// Block calls (including permanent +Inf outages), and optional compaction at
// a horizon that can lie past the search start — so the intra search meets
// archived intervals after its start instant, reserves into the archive and
// queries instants preceding the live window. Called twice per trial, it
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
	// Fault-style outage blocks, occasionally permanent. A permanent block
	// under a recurring blackout would make the scheduler loop forever on a
	// doomed demand (each window end is a finite "next event", so the stall
	// check never fires — in both implementations), so +Inf outages are only
	// drawn on blackout-free tables, where they surface as ErrStalled.
	for k, n := 0, rng.Intn(3); k < n; k++ {
		start := ns(rng.Float64() * 2)
		end := start + ns(0.1+rng.Float64())
		if !blackout && rng.Intn(8) == 0 {
			end = Forever
		}
		prt.Block(rng.Intn(ports), start, end)
	}
	if rng.Intn(2) == 0 {
		prt.CompactBefore(ns(rng.Float64() * 3))
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

// mergedIntervals flattens a timeline's archive and live window into one
// list, so equality checks see through compaction.
func mergedIntervals(tl *timeline) []interval {
	out := make([]interval, 0, len(tl.old)+len(tl.iv))
	out = append(out, tl.old...)
	out = append(out, tl.iv...)
	return out
}

// samePRT reports whether two tables hold identical reservations, bit for
// bit, regardless of how each has been compacted.
func samePRT(a, b *PRT) bool {
	if a.n != b.n || a.count != b.count {
		return false
	}
	for i := 0; i < a.n; i++ {
		if !reflect.DeepEqual(mergedIntervals(&a.in[i]), mergedIntervals(&b.in[i])) {
			return false
		}
		if !reflect.DeepEqual(mergedIntervals(&a.out[i]), mergedIntervals(&b.out[i])) {
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
// random Coflows, preloads, blackouts, fault-degraded and compacted tables,
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
//     demand also refreshes a released port.
func TestQuickFastMatchesReferenceIntra(t *testing.T) {
	var wide, manyPorts, primed, adjacent, blackoutRelease int
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
		refOpts := opts
		refOpts.Reference = true
		ref, refErr := IntraCoflow(refPRT, c, refOpts)

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
	} {
		if shape.n == 0 {
			t.Errorf("no trial drew %s", shape.name)
		}
	}
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
		popts.Reference = true
		rs, rErr := IntraCoflow(ref, prior, popts)
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
// shared-PRT regime where Coflows shorten each other's reservations and the
// horizon compaction kicks in — and requires every schedule in the pass to
// match bit for bit.
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
		refOpts := opts
		refOpts.Reference = true
		ref, refErr := InterCoflow(refPRT, ordered, refOpts)

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

// TestQuickCompactionIsExact pins the tentpole invariant down directly:
// an InterCoflow pass over a compacting PRT equals, bit for bit, the
// pre-compaction semantics — an uncompacted PRT driven Coflow by Coflow —
// and utilization accounting over any slice is unchanged.
func TestQuickCompactionIsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ports := 4 + rng.Intn(6)
		var cs []*coflow.Coflow
		for k, n := 0, 3+rng.Intn(6); k < n; k++ {
			c := randomCoflow(rng, ports, ports)
			c.ID = k
			c.Arrival = rng.Float64() * 5
			cs = append(cs, c)
		}
		opts := randomOptions(rng)
		ordered := FIFO{}.Sort(cs)

		compacted := NewPRT(ports)
		got, err1 := InterCoflow(compacted, ordered, opts)

		plain := NewPRT(ports)
		var want []*Schedule
		var err2 error
		for _, c := range ordered {
			co := opts
			co.Start = max(opts.Start, ns(c.Arrival))
			var s *Schedule
			if s, err2 = IntraCoflow(plain, c, co); err2 != nil {
				break
			}
			want = append(want, s)
		}

		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if !sameSchedule(got[i], want[i]) {
				return false
			}
		}
		if !samePRT(compacted, plain) {
			return false
		}
		// busyTime over random slices must agree despite the archives.
		for k := 0; k < 10; k++ {
			i := rng.Intn(ports)
			from := ns(rng.Float64() * 10)
			to := from + ns(rng.Float64()*10)
			if compacted.busyTime(i, from, to) != plain.busyTime(i, from, to) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: quickCount}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRemoveExact: satellite guarantee for timeline.remove — a
// TryReserve rollback removes the interval starting exactly at the given
// tick, in the live window or the archive, and a start one tick off removes
// nothing.
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
		// Sometimes compact a prefix into the archive, so removal is
		// exercised on both halves.
		if rng.Intn(2) == 0 {
			tl.compact(ns(float64(rng.Intn(9))))
		}
		pick := starts[rng.Intn(len(starts))]
		tl.remove(pick + 1)
		if got := len(tl.iv) + len(tl.old); got != len(starts) {
			t.Logf("seed %d: a start one tick off removed an interval", seed)
			return false
		}
		tl.remove(pick)
		if got := len(tl.iv) + len(tl.old); got != len(starts)-1 {
			t.Logf("seed %d: remove missed, %d intervals left of %d", seed, got, len(starts))
			return false
		}
		for _, iv := range mergedIntervals(&tl) {
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
