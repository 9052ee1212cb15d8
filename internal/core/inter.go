package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sunflow/internal/coflow"
)

// A Policy orders Coflows by scheduling priority: earlier Coflows in the
// returned slice are scheduled first by InterCoflow and therefore are never
// blocked by later ones. Sunflow leaves the policy to the operator (§4.2);
// this package ships the policies used in the paper's evaluation.
type Policy interface {
	// Sort returns the Coflows in priority order (most important first)
	// without modifying the input slice.
	Sort(cs []*coflow.Coflow) []*coflow.Coflow
	// Name identifies the policy in reports.
	Name() string
}

// KeyPolicy is a Policy whose order is ascending (Key, Arrival, ID): the
// priority of a Coflow is one number computed from the Coflow alone. The
// online engine caches each live Coflow's key while its remaining demand is
// unchanged and sorts on the cached values; Sort must return the same order.
type KeyPolicy interface {
	Policy
	// Key returns the Coflow's sort key; smaller keys are served first.
	Key(c *coflow.Coflow) float64
}

// sortByKey returns a copy of cs in the KeyPolicy order of p, computing each
// key once.
func sortByKey(p KeyPolicy, cs []*coflow.Coflow) []*coflow.Coflow {
	type keyed struct {
		k float64
		c *coflow.Coflow
	}
	ks := make([]keyed, len(cs))
	for i, c := range cs {
		ks[i] = keyed{p.Key(c), c}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.c.Arrival, b.c.Arrival), cmp.Compare(a.c.ID, b.c.ID))
	})
	out := make([]*coflow.Coflow, len(cs))
	for i := range ks {
		out[i] = ks[i].c
	}
	return out
}

// ShortestFirst orders Coflows by ascending packet-switched lower bound TpL
// — the shortest-Coflow-first policy of §4.2 and §5.4, breaking ties by
// arrival time then id for determinism.
type ShortestFirst struct {
	// LinkBps is the bandwidth TpL is computed against.
	LinkBps float64
}

// Sort implements Policy.
func (p ShortestFirst) Sort(cs []*coflow.Coflow) []*coflow.Coflow { return sortByKey(p, cs) }

// Key implements KeyPolicy: the Coflow's TpL.
func (p ShortestFirst) Key(c *coflow.Coflow) float64 { return c.PacketLowerBound(p.LinkBps) }

// Name implements Policy.
func (ShortestFirst) Name() string { return "shortest-coflow-first" }

// FIFO orders Coflows by arrival time (first-come first-served).
type FIFO struct{}

// Sort implements Policy.
func (p FIFO) Sort(cs []*coflow.Coflow) []*coflow.Coflow { return sortByKey(p, cs) }

// Key implements KeyPolicy: the arrival time.
func (FIFO) Key(c *coflow.Coflow) float64 { return c.Arrival }

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// PriorityClasses orders Coflows by an operator-assigned class (lower class
// value = more important), breaking ties with a secondary policy. It models
// the privileged-versus-regular and multi-stage-job scenarios of §4.2.
type PriorityClasses struct {
	// Class maps Coflow id to its class; unmapped Coflows get class
	// DefaultClass.
	Class map[int]int
	// DefaultClass is the class of unmapped Coflows.
	DefaultClass int
	// Within breaks ties inside a class; nil means FIFO.
	Within Policy
}

// Sort implements Policy.
func (p PriorityClasses) Sort(cs []*coflow.Coflow) []*coflow.Coflow {
	within := p.Within
	if within == nil {
		within = FIFO{}
	}
	out := within.Sort(cs)
	class := func(c *coflow.Coflow) int {
		if cl, ok := p.Class[c.ID]; ok {
			return cl
		}
		return p.DefaultClass
	}
	sort.SliceStable(out, func(a, b int) bool { return class(out[a]) < class(out[b]) })
	return out
}

// Name implements Policy.
func (PriorityClasses) Name() string { return "priority-classes" }

// InterCoflow schedules multiple Coflows in the given priority order over a
// fresh (or pre-seeded) PRT, applying IntraCoflow to each in turn
// (Algorithm 1, InterCoflow). Because every Coflow's reservations are
// fitted around those of the Coflows before it, more prioritized Coflows
// complete without being blocked by less prioritized ones; lower-priority
// reservations are shortened where needed (Figure 2).
//
// Each Coflow's scheduling starts at max(opts.Start, its arrival), the
// arrival converted to ticks by Nanos. Returned schedules parallel the input
// order; on error they are those of the Coflows before the failing one.
func InterCoflow(prt *PRT, ordered []*coflow.Coflow, opts Options) ([]*Schedule, error) {
	sp := opts.Prof.Start("inter")
	defer sp.Finish()
	scheds := make([]*Schedule, 0, len(ordered))
	for _, c := range ordered {
		arrival, err := Nanos(c.Arrival)
		if err != nil {
			return scheds, fmt.Errorf("core: coflow %d arrival: %w", c.ID, err)
		}
		co := opts
		co.Start = max(opts.Start, arrival)
		s, err := IntraCoflow(prt, c, co)
		if err != nil {
			return scheds, err
		}
		scheds = append(scheds, s)
	}
	return scheds, nil
}
