// Package workload contains the workload transformations of the Sunflow
// paper's evaluation settings (§5.1 and §5.4): the ±5% flow-size
// perturbation with a 1 MB floor, the network-idleness metric, and byte
// scaling to reach a target idleness while preserving every Coflow's
// structure.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"sunflow/internal/coflow"
)

// DefaultFloorBytes is the 1 MB lower bound applied after perturbation — the
// smallest flow size in the trace, which fixes α ≤ 1.25 at B = 1 Gbps and
// δ = 10 ms (Lemma 2).
const DefaultFloorBytes = 1e6

// Perturb returns copies of the Coflows with every flow size multiplied by a
// uniform factor in [1-frac, 1+frac] and floored at floorBytes, as §5.1
// prescribes with frac = 0.05 to undo the trace's MB rounding. The
// perturbation is deterministic in seed.
func Perturb(coflows []*coflow.Coflow, frac, floorBytes float64, seed int64) []*coflow.Coflow {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*coflow.Coflow, len(coflows))
	for i, c := range coflows {
		nc := c.Clone()
		for k := range nc.Flows {
			if nc.Flows[k].Bytes <= 0 {
				continue
			}
			factor := 1 + frac*(2*rng.Float64()-1)
			b := nc.Flows[k].Bytes * factor
			if b < floorBytes {
				b = floorBytes
			}
			nc.Flows[k].Bytes = b
		}
		out[i] = nc
	}
	return out
}

// ScaleBytes returns copies of the Coflows with every flow size multiplied
// by factor (structure and arrivals unchanged).
func ScaleBytes(coflows []*coflow.Coflow, factor float64) []*coflow.Coflow {
	out := make([]*coflow.Coflow, len(coflows))
	for i, c := range coflows {
		nc := c.Clone()
		for k := range nc.Flows {
			nc.Flows[k].Bytes *= factor
		}
		out[i] = nc
	}
	return out
}

// span is one Coflow's activity interval [lo, hi].
type span struct{ lo, hi float64 }

// idlenessOf merges activity spans and returns the idle fraction of the
// overall horizon.
func idlenessOf(spans []span) float64 {
	sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
	return idlenessSorted(spans)
}

// idlenessSorted is idlenessOf for spans already in ascending lo order. The
// merged busy time does not depend on the order of spans with equal lo: they
// fall into one merged interval whose end is their maximum hi.
func idlenessSorted(spans []span) float64 {
	if len(spans) == 0 {
		return 1
	}
	first := spans[0].lo
	last := first
	busy := 0.0
	curLo, curHi := spans[0].lo, spans[0].hi
	for _, s := range spans[1:] {
		if s.lo <= curHi {
			if s.hi > curHi {
				curHi = s.hi
			}
			continue
		}
		busy += curHi - curLo
		curLo, curHi = s.lo, s.hi
	}
	busy += curHi - curLo
	if curHi > last {
		last = curHi
	}
	total := last - first
	if total <= 0 {
		return 0
	}
	return 1 - busy/total
}

// Idleness computes the network idleness metric of §5.4: a Coflow is active
// from its arrival until arrival + TpL at bandwidth linkBps, and idleness is
// the fraction of the span from the first arrival to the last activity end
// during which no Coflow is active. The metric is independent of any
// scheduling policy.
func Idleness(coflows []*coflow.Coflow, linkBps float64) float64 {
	spans := make([]span, 0, len(coflows))
	for _, c := range coflows {
		tpl := c.PacketLowerBound(linkBps)
		if tpl <= 0 {
			continue
		}
		spans = append(spans, span{lo: c.Arrival, hi: c.Arrival + tpl})
	}
	return idlenessOf(spans)
}

// idlenessEval evaluates Idleness(ScaleBytes(coflows, factor), linkBps) for
// many factors without cloning the workload: per Coflow it keeps each port
// side's flow bytes in flow order, so the scaled per-port sums — and through
// them TpL, the spans, and the idleness — come out bit-identical to the
// materializing path. One evaluation is O(total flows) with no allocation,
// which is what lets ScaleToIdleness bisect an 18-decade range on a
// million-Coflow workload without 80 full-trace clones.
//
// The lists are stored flat and hold only positive bytes: PortSums adds a
// scaled flow only if b·factor > 0, which needs b > 0 (factor > 0), and a
// positive b whose product underflows to +0 leaves the sum unchanged either
// way. The Coflows are sorted once by arrival: a span's lo is its arrival,
// which does not depend on the factor, so every evaluation produces its spans
// already sorted and merges them without a sort.
type idlenessEval struct {
	// arrival[c] is the arrival of the c-th Coflow with positive demand;
	// its (side, port) lists are first[c] to first[c+1]-1, list l being
	// bytes[end[l]:end[l+1]] in flow order — exactly the additions PortSums
	// would make.
	arrival []float64
	first   []int
	end     []int
	bytes   []float64
	spans   []span
	linkBps float64
}

func newIdlenessEval(coflows []*coflow.Coflow, linkBps float64) *idlenessEval {
	byArrival := slices.Clone(coflows)
	slices.SortStableFunc(byArrival, func(a, b *coflow.Coflow) int { return cmp.Compare(a.Arrival, b.Arrival) })
	n := 0
	for _, c := range coflows {
		n += len(c.Flows)
	}
	ev := &idlenessEval{
		first:   append(make([]int, 0, len(coflows)+1), 0),
		end:     append(make([]int, 0, 2*n+1), 0),
		bytes:   make([]float64, 0, 2*n),
		linkBps: linkBps,
	}
	// lists holds the current Coflow's (side, port) lists in first-touch
	// order, reusing the previous Coflow's buffers; idx finds a list by key.
	var lists [][]float64
	idx := map[[2]int]int{}
	for _, c := range byArrival {
		lists = lists[:0]
		clear(idx)
		for _, f := range c.Flows {
			if f.Bytes <= 0 {
				continue
			}
			for _, key := range [2][2]int{{0, f.Src}, {1, f.Dst}} {
				i, ok := idx[key]
				if !ok {
					i = len(lists)
					idx[key] = i
					if i < cap(lists) {
						lists = lists[:i+1]
						lists[i] = lists[i][:0]
					} else {
						lists = append(lists, nil)
					}
				}
				lists[i] = append(lists[i], f.Bytes)
			}
		}
		if len(lists) == 0 {
			continue // no span at any factor
		}
		for _, l := range lists {
			ev.bytes = append(ev.bytes, l...)
			ev.end = append(ev.end, len(ev.bytes))
		}
		ev.arrival = append(ev.arrival, c.Arrival)
		ev.first = append(ev.first, len(ev.end)-1)
	}
	ev.spans = make([]span, 0, len(ev.arrival))
	return ev
}

// at computes the idleness the workload would have with every flow size
// multiplied by factor (> 0). Sums are non-negative, so a plain compare takes
// their maximum exactly as math.Max does.
func (e *idlenessEval) at(factor float64) float64 {
	spans := e.spans[:0]
	for c, arrival := range e.arrival {
		var maxBytes float64
		for l := e.first[c]; l < e.first[c+1]; l++ {
			sum := 0.0
			for _, b := range e.bytes[e.end[l]:e.end[l+1]] {
				sum += b * factor
			}
			if sum > maxBytes {
				maxBytes = sum
			}
		}
		tpl := maxBytes * 8 / e.linkBps
		if tpl <= 0 {
			continue
		}
		spans = append(spans, span{lo: arrival, hi: arrival + tpl})
	}
	e.spans = spans
	return idlenessSorted(spans)
}

// ScaleToIdleness finds (by bisection) the byte-scaling factor that brings
// the workload's idleness to target, and returns the factor together with
// the scaled Coflows. This is how §5.4 derives the 20% and 40% idleness
// settings while "preserving Coflows' structural characteristics". The
// bisection runs on a precomputed span evaluator, so only the final result is
// materialized: the search itself allocates no Coflows.
func ScaleToIdleness(coflows []*coflow.Coflow, linkBps, target float64) (float64, []*coflow.Coflow, error) {
	if target <= 0 || target >= 1 {
		return 0, nil, fmt.Errorf("workload: idleness target must be in (0,1), got %v", target)
	}
	ev := newIdlenessEval(coflows, linkBps)
	// Idleness decreases monotonically as bytes grow.
	lo, hi := 1e-9, 1e9
	if ev.at(lo) < target {
		return 0, nil, fmt.Errorf("workload: cannot reach idleness %.2f (even factor %g is too busy)", target, lo)
	}
	if ev.at(hi) > target {
		return 0, nil, fmt.Errorf("workload: cannot reach idleness %.2f (even factor %g is too idle)", target, hi)
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over 18 decades
		if ev.at(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	factor := math.Sqrt(lo * hi)
	return factor, ScaleBytes(coflows, factor), nil
}
