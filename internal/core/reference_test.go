package core

import (
	"container/heap"
	"fmt"
	"slices"

	"sunflow/internal/coflow"
)

// This file holds the scan-based reference planner, the oracle the
// differential suites hold IntraCoflow to. It shares the demand, slot and
// placement helpers with the production path and differs only in the loop:
// every round re-examines every pending demand, and the time cursor advances
// over a heap of every release on the Coflow's ports.

// intraReference runs the reference planner behind the same argument checks
// as IntraCoflow, returning the schedule and the number of demand visits.
func intraReference(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, int, error) {
	if err := opts.Validate(); err != nil {
		return nil, 0, err
	}
	if err := c.Validate(prt.Ports()); err != nil {
		return nil, 0, err
	}
	return intraScan(prt, c, opts)
}

// interReference is InterCoflow with the reference planner: the same
// per-Coflow start, each Coflow planned by intraReference.
func interReference(prt *PRT, ordered []*coflow.Coflow, opts Options) ([]*Schedule, error) {
	scheds := make([]*Schedule, 0, len(ordered))
	for _, c := range ordered {
		arrival, err := Nanos(c.Arrival)
		if err != nil {
			return scheds, fmt.Errorf("core: coflow %d arrival: %w", c.ID, err)
		}
		co := opts
		co.Start = max(opts.Start, arrival)
		s, _, err := intraReference(prt, c, co)
		if err != nil {
			return scheds, err
		}
		scheds = append(scheds, s)
	}
	return scheds, nil
}

// releaseHeap is a min-heap of circuit release ticks.
type releaseHeap []int64

func (h releaseHeap) Len() int            { return len(h) }
func (h releaseHeap) Less(a, b int) bool  { return h[a] < h[b] }
func (h releaseHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *releaseHeap) Push(x interface{}) { *h = append(*h, x.(int64)) }
func (h *releaseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// intraScan is the reference implementation of the Algorithm 1 loop: every
// round re-examines all pending demands in order. O(F) per round; it is the
// differential-testing oracle for the event-driven path, intraFast.
func intraScan(prt *PRT, c *coflow.Coflow, opts Options) (*Schedule, int, error) {
	pending := buildPending(make([]demand, 0, len(c.Flows)), c, opts)
	sched := newSchedule(c, opts)
	if len(pending) == 0 {
		return sched, 0, nil
	}

	// Seed the release-time heap with existing commitments on the ports this
	// Coflow touches, so the time cursor can advance past them.
	ins, outs := portSets(pending)
	releases := releaseHeap(prt.ReleasesAfter(opts.Start, ins, outs, nil))
	heap.Init(&releases)

	t := opts.Start
	examined := 0
	atBlackoutEnd := false
	for len(pending) > 0 {
		examined += len(pending)
		placed := len(sched.Reservations)
		for idx := range pending {
			d := &pending[idx]
			if d.p == 0 || !prt.FreeAt(d.i, d.j, t) {
				continue
			}
			l, ok := slot(prt.NextCommitment(d.i, d.j, t), t, d, &opts)
			if !ok {
				continue
			}
			heap.Push(&releases, place(prt, sched, d, t, l, &opts))
		}

		// Drop satisfied demands.
		live := pending[:0]
		for _, d := range pending {
			if d.p > 0 {
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
		for releases.Len() > 0 && releases[0] <= t {
			heap.Pop(&releases)
		}
		blk := prt.nextBlackoutEnd(t)
		next := blk
		if releases.Len() > 0 && releases[0] < next {
			next = releases[0]
		}
		if next == Forever || stuck(atBlackoutEnd, len(sched.Reservations) > placed, releases.Len() > 0 && releases[0] != Forever) {
			return nil, examined, fmt.Errorf("%w: %d flows blocked at t=%.6f for %v", ErrStalled, len(pending), Seconds(t), c)
		}
		t = next
		atBlackoutEnd = blk == t
	}
	return sched, examined, nil
}

// portSets returns the distinct input and output ports of the demands, each
// sorted.
func portSets(pending []demand) (ins, outs []int) {
	for _, d := range pending {
		ins, outs = append(ins, d.i), append(outs, d.j)
	}
	slices.Sort(ins)
	slices.Sort(outs)
	return slices.Compact(ins), slices.Compact(outs)
}

// The point queries below are the scan planner's view of the table: each
// binary-searches the timelines afresh, where the fast path keeps fingers.

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

// ReleasesAfter appends to dst the end times, strictly after t, of existing
// reservations touching any of the given input and output ports. The scan
// planner advances through these instants (Algorithm 1, line 10).
func (p *PRT) ReleasesAfter(t int64, ins, outs []int, dst []int64) []int64 {
	for _, i := range ins {
		dst = p.in[i].endsAfter(t, dst)
	}
	for _, j := range outs {
		dst = p.out[j].endsAfter(t, dst)
	}
	return dst
}

// freeAt reports whether the port is free at time t, i.e. no interval
// contains t.
func (tl *timeline) freeAt(t int64) bool { return tl.freeFrom(tl.searchAfter(t), t) }

// nextStart returns the start of the earliest interval beginning after t, or
// Forever when the port has no later commitment.
func (tl *timeline) nextStart(t int64) int64 { return tl.nextStartFrom(tl.searchAfter(t)) }

// endsAfter appends to dst the end times of all intervals ending after t.
func (tl *timeline) endsAfter(t int64, dst []int64) []int64 {
	for _, v := range tl.iv[endsAfter(tl.iv, t):] {
		dst = append(dst, v.end)
	}
	return dst
}
