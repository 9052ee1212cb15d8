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
// compaction horizon and per-Coflow start, each Coflow planned by
// intraReference.
func interReference(prt *PRT, ordered []*coflow.Coflow, opts Options) ([]*Schedule, error) {
	own := make([]int64, len(ordered))
	starts := make([]int64, len(ordered)+1)
	starts[len(ordered)] = Forever
	for k := len(ordered) - 1; k >= 0; k-- {
		arrival, err := Nanos(ordered[k].Arrival)
		if err != nil {
			return nil, fmt.Errorf("core: coflow %d arrival: %w", ordered[k].ID, err)
		}
		own[k] = max(opts.Start, arrival)
		starts[k] = min(starts[k+1], own[k])
	}
	scheds := make([]*Schedule, 0, len(ordered))
	for k, c := range ordered {
		prt.CompactBefore(starts[k])
		co := opts
		co.Start = own[k]
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
