package fabric

import (
	"sort"
	"sync"
)

// mmEntry is one heap candidate: the equal share a port would give its
// unfrozen flows at the time the entry was pushed. Entries go stale when the
// port's availability or flow count changes; staleness is detected at pop
// time by recomputing the share.
type mmEntry struct {
	share float64
	side  int32 // 0 = input port, 1 = output port
	port  int32
}

// less orders entries exactly like the reference's bottleneck scan: smallest
// share first, input side before output side, then ascending port.
func (e mmEntry) less(o mmEntry) bool {
	if e.share != o.share {
		return e.share < o.share
	}
	if e.side != o.side {
		return e.side < o.side
	}
	return e.port < o.port
}

// maxminScratch holds the reusable state of the fast MaxMinFair: per-port
// unfrozen-flow counters, CSR-style per-port flow lists (ascending flow
// index, so the freeze order matches the reference's linear scan), frozen
// flags and the candidate heap.
type maxminScratch struct {
	frozen            []bool
	countIn, countOut []int32
	startIn, startOut []int32
	flowsIn, flowsOut []int32
	curIn, curOut     []int32
	heap              []mmEntry
}

var maxminPool = sync.Pool{New: func() any { return new(maxminScratch) }}

func (sc *maxminScratch) init(flows []FlowKey, nIn, nOut int) {
	if cap(sc.frozen) < len(flows) {
		sc.frozen = make([]bool, len(flows))
		sc.flowsIn = make([]int32, len(flows))
		sc.flowsOut = make([]int32, len(flows))
	}
	sc.frozen = sc.frozen[:len(flows)]
	for i := range sc.frozen {
		sc.frozen[i] = false
	}
	sc.flowsIn = sc.flowsIn[:len(flows)]
	sc.flowsOut = sc.flowsOut[:len(flows)]
	if cap(sc.countIn) < nIn {
		sc.countIn = make([]int32, nIn)
		sc.startIn = make([]int32, nIn+1)
		sc.curIn = make([]int32, nIn)
	}
	sc.countIn = sc.countIn[:nIn]
	sc.startIn = sc.startIn[:nIn+1]
	sc.curIn = sc.curIn[:nIn]
	if cap(sc.countOut) < nOut {
		sc.countOut = make([]int32, nOut)
		sc.startOut = make([]int32, nOut+1)
		sc.curOut = make([]int32, nOut)
	}
	sc.countOut = sc.countOut[:nOut]
	sc.startOut = sc.startOut[:nOut+1]
	sc.curOut = sc.curOut[:nOut]
	sc.heap = sc.heap[:0]

	for p := range sc.countIn {
		sc.countIn[p] = 0
	}
	for p := range sc.countOut {
		sc.countOut[p] = 0
	}
	for _, f := range flows {
		sc.countIn[f.Src]++
		sc.countOut[f.Dst]++
	}
	sc.startIn[0] = 0
	for p := 0; p < nIn; p++ {
		sc.startIn[p+1] = sc.startIn[p] + sc.countIn[p]
	}
	sc.startOut[0] = 0
	for p := 0; p < nOut; p++ {
		sc.startOut[p+1] = sc.startOut[p] + sc.countOut[p]
	}
	copy(sc.curIn, sc.startIn[:nIn])
	copy(sc.curOut, sc.startOut[:nOut])
	for idx, f := range flows {
		sc.flowsIn[sc.curIn[f.Src]] = int32(idx)
		sc.curIn[f.Src]++
		sc.flowsOut[sc.curOut[f.Dst]] = int32(idx)
		sc.curOut[f.Dst]++
	}
}

func (sc *maxminScratch) push(e mmEntry) {
	sc.heap = append(sc.heap, e)
	i := len(sc.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sc.heap[i].less(sc.heap[parent]) {
			break
		}
		sc.heap[i], sc.heap[parent] = sc.heap[parent], sc.heap[i]
		i = parent
	}
}

func (sc *maxminScratch) pop() mmEntry {
	h := sc.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	sc.heap = h[:last]
	h = sc.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].less(h[small]) {
			small = l
		}
		if r < len(h) && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// MaxMinFair allocates max-min fair rates by progressive filling: at each
// step the most contended port's capacity is split equally among its
// unfrozen flows, those flows are frozen at that rate, and the residue
// propagates. Ties between bottlenecks go to the input side, then to the
// lower port, so the allocation is a pure function of its arguments.
// availIn and availOut are mutated: the allocated rates are subtracted. The
// returned slice parallels flows.
//
// The bottleneck search runs on a min-heap of (share, side, port) candidates with lazy
// invalidation — a popped candidate is used only if its share still equals
// the port's current availability over its current unfrozen-flow count — and
// the freeze step walks a per-port flow list instead of rescanning all
// flows. Each port bottlenecks at most once, so the whole allocation is
// O(flows · log ports) instead of the reference's O(rounds × flows). Working
// state is pooled; only the returned rate slice is allocated.
//
// The heap ordering and the ascending freeze/subtraction order replicate
// MaxMinFairReference exactly, so the two return bit-identical rates (the
// differential suite pins this against the dense oracle in the package
// tests).
func MaxMinFair(flows []FlowKey, availIn, availOut []float64) []float64 {
	rates := make([]float64, len(flows))
	if len(flows) == 0 {
		return rates
	}
	sc := maxminPool.Get().(*maxminScratch)
	defer maxminPool.Put(sc)
	sc.init(flows, len(availIn), len(availOut))

	for p := range sc.countIn {
		if c := sc.countIn[p]; c > 0 {
			sc.push(mmEntry{share: availIn[p] / float64(c), side: 0, port: int32(p)})
		}
	}
	for p := range sc.countOut {
		if c := sc.countOut[p]; c > 0 {
			sc.push(mmEntry{share: availOut[p] / float64(c), side: 1, port: int32(p)})
		}
	}

	remaining := len(flows)
	for remaining > 0 && len(sc.heap) > 0 {
		e := sc.pop()
		// Lazy invalidation: discard entries whose share no longer reflects
		// the port's current state. The freshest entry for every live port is
		// always in the heap, because every mutation below pushes one.
		var cnt int32
		var avail float64
		if e.side == 0 {
			cnt, avail = sc.countIn[e.port], availIn[e.port]
		} else {
			cnt, avail = sc.countOut[e.port], availOut[e.port]
		}
		if cnt == 0 || avail/float64(cnt) != e.share {
			continue
		}
		share := e.share
		if share < 0 {
			share = 0
		}

		var list []int32
		if e.side == 0 {
			list = sc.flowsIn[sc.startIn[e.port]:sc.startIn[e.port+1]]
		} else {
			list = sc.flowsOut[sc.startOut[e.port]:sc.startOut[e.port+1]]
		}
		for _, fi := range list {
			if sc.frozen[fi] {
				continue
			}
			f := flows[fi]
			rates[fi] = share
			sc.frozen[fi] = true
			remaining--
			sc.countIn[f.Src]--
			sc.countOut[f.Dst]--
			availIn[f.Src] -= share
			availOut[f.Dst] -= share
			if availIn[f.Src] < 0 {
				availIn[f.Src] = 0
			}
			if availOut[f.Dst] < 0 {
				availOut[f.Dst] = 0
			}
			if c := sc.countIn[f.Src]; c > 0 {
				sc.push(mmEntry{share: availIn[f.Src] / float64(c), side: 0, port: int32(f.Src)})
			}
			if c := sc.countOut[f.Dst]; c > 0 {
				sc.push(mmEntry{share: availOut[f.Dst] / float64(c), side: 1, port: int32(f.Dst)})
			}
		}
	}
	return rates
}

// FairSharing is a RateAllocator that max-min fair shares the fabric among
// all live flows with no Coflow awareness — the per-flow fairness baseline a
// plain packet network would provide.
type FairSharing struct{}

// Allocate implements RateAllocator.
func (FairSharing) Allocate(remaining map[int]map[FlowKey]float64, attained map[int]float64, arrival map[int]float64, linkBps float64, ports int) map[int]map[FlowKey]float64 {
	availIn := fullAvail(ports, linkBps)
	availOut := fullAvail(ports, linkBps)

	var flows []FlowKey
	var owners []int
	for id, fs := range remaining {
		for k, b := range fs {
			if b > 0 {
				flows = append(flows, k)
				owners = append(owners, id)
			}
		}
	}
	sortFlows(flows, owners)
	rates := MaxMinFair(flows, availIn, availOut)

	out := make(map[int]map[FlowKey]float64, len(remaining))
	for idx, f := range flows {
		id := owners[idx]
		if out[id] == nil {
			out[id] = make(map[FlowKey]float64)
		}
		out[id][f] = rates[idx]
	}
	return out
}

// Name implements RateAllocator.
func (FairSharing) Name() string { return "per-flow-fair" }

// fullAvail returns a slice of ports entries all set to linkBps.
func fullAvail(ports int, linkBps float64) []float64 {
	a := make([]float64, ports)
	for i := range a {
		a[i] = linkBps
	}
	return a
}

// sortFlows orders flows (and their parallel owners) deterministically by
// (owner, src, dst), since map iteration order would otherwise leak into the
// allocation.
func sortFlows(flows []FlowKey, owners []int) {
	s := flowSorter{flows: flows, owners: owners}
	sort.Sort(s)
}

type flowSorter struct {
	flows  []FlowKey
	owners []int
}

func (s flowSorter) Len() int { return len(s.flows) }
func (s flowSorter) Swap(a, b int) {
	s.flows[a], s.flows[b] = s.flows[b], s.flows[a]
	s.owners[a], s.owners[b] = s.owners[b], s.owners[a]
}
func (s flowSorter) Less(a, b int) bool {
	if s.owners[a] != s.owners[b] {
		return s.owners[a] < s.owners[b]
	}
	if s.flows[a].Src != s.flows[b].Src {
		return s.flows[a].Src < s.flows[b].Src
	}
	return s.flows[a].Dst < s.flows[b].Dst
}

// PacedFairSharing is FairSharing that recomputes only on Coflow arrivals
// and completions — the approximation large-scale experiments use for the
// hybrid fabric's packet path, where per-flow-completion reallocation over
// tens of thousands of flows is prohibitively expensive to simulate and
// immaterial to the results (the path carries only mice).
type PacedFairSharing struct{ FairSharing }

// PacedByCoflowEvents reports the paced recomputation schedule.
func (PacedFairSharing) PacedByCoflowEvents() bool { return true }

// Name identifies the allocator in reports.
func (PacedFairSharing) Name() string { return "per-flow-fair-paced" }
