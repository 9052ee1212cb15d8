// Package solstice implements the Solstice circuit scheduler (Liu et al.,
// CoNEXT 2015), the strongest preemptive baseline in the Sunflow paper's
// intra-Coflow evaluation (§5.2). Solstice stuffs the demand matrix to equal
// line sums (QuickStuff) and then extracts perfect matchings of "long"
// entries with a threshold-halving loop (BigSlice), producing a sequence of
// circuit assignments whose durations shrink geometrically.
//
// Schedule runs on a pooled Stuffer — reusable arena matrices, bitset
// matching scratch and incrementally maintained row maxima — and is proven
// bit-identical to ScheduleReference, the dense implementation kept in the
// package tests, by the seeded differential suite (DESIGN.md §8).
package solstice

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sunflow/internal/bvn"
	"sunflow/internal/coflow"
	"sunflow/internal/fabric"
	"sunflow/internal/matching"
	"sunflow/internal/obs"
	"sunflow/internal/obs/span"
)

// Options configures the scheduler.
type Options struct {
	// LinkBps is the link bandwidth B in bits/s.
	LinkBps float64
	// Delta is the circuit reconfiguration delay δ in seconds. Solstice uses
	// it to size the quantization slot (δ/10) so slices below the switching
	// timescale are never scheduled; the executor charges the actual δ per
	// reconfiguration.
	Delta float64
	// Obs optionally records scheduling metrics (pass counts, wall time,
	// assignments produced) and, via the executor, circuit and delivery
	// counters. Nil disables instrumentation.
	Obs *obs.Observer
	// Prof optionally records profiling spans: Run wraps the schedule in
	// "sched.pass" and the fabric execution in "fabric.execute"; Schedule
	// records "solstice.stuff" (QuickStuff) and "solstice.slice" (BigSlice)
	// children. Nil disables span recording.
	Prof *span.Stack
}

// Stats reports details of one scheduling run.
type Stats struct {
	// Assignments is the number of configurations produced.
	Assignments int
	// StuffedBytes is the dummy demand added by QuickStuff.
	StuffedBytes float64
	// TotalDuration is the sum of assignment durations (transmission time,
	// excluding reconfiguration).
	TotalDuration float64
}

// ErrTooSmall is returned for an empty port count.
var ErrTooSmall = errors.New("solstice: need at least one port")

// Stuffer holds the reusable scheduling state of one Solstice instance: the
// processing-time matrix arena, the bvn stuffing arena, the bitset matching
// scratch and the previous assignment (Solstice's own warm start — a
// matching still feasible at the current threshold is extended rather than
// recomputed). The scratch's adjacency is maintained incrementally: peeling
// clears the edges of entries that fall below the active threshold, so a
// full O(N²) rebuild happens only when the threshold itself changes.
// Allocate one per scheduler goroutine and reuse it across Coflows; Schedule
// borrows one from a package pool.
type Stuffer struct {
	dec     bvn.Decomposer
	scratch matching.Scratch
	pwork   []float64
	p       [][]float64
	match   []int
	prev    []int
	prevOK  bool
	adjMode int8    // which edge set the scratch currently holds
	adjR    float64 // threshold of the adjacency when adjMode == adjThreshold
}

const (
	adjNone      int8 = iota // scratch adjacency is stale
	adjThreshold             // edges are entries >= adjR (threshold phase)
	adjResidue               // edges are entries > tol (residue phase)
)

// NewStuffer returns a Stuffer sized for n ports; it grows on demand.
func NewStuffer(n int) *Stuffer {
	st := &Stuffer{}
	st.resize(n)
	return st
}

func (st *Stuffer) resize(n int) {
	if cap(st.pwork) < n*n {
		st.pwork = make([]float64, n*n)
		st.p = make([][]float64, n)
		st.match = make([]int, n)
		st.prev = make([]int, n)
	}
	st.p = st.p[:n]
	for i := 0; i < n; i++ {
		st.p[i] = st.pwork[i*n : (i+1)*n : (i+1)*n]
	}
	st.match = st.match[:n]
	st.prev = st.prev[:n]
}

var stufferPool = sync.Pool{New: func() any { return new(Stuffer) }}

// Schedule computes Solstice's assignment sequence for one Coflow demand on
// an n-port switch using a Stuffer borrowed from a package pool. Durations
// are in seconds of transmission time; the executor in package fabric adds δ
// per changed circuit.
func Schedule(c *coflow.Coflow, n int, opts Options) ([]fabric.Assignment, Stats, error) {
	st := stufferPool.Get().(*Stuffer)
	defer stufferPool.Put(st)
	return st.Schedule(c, n, opts)
}

// Schedule is the fast scheduling path over this Stuffer's reusable state.
// It is bit-identical to ScheduleReference.
func (st *Stuffer) Schedule(c *coflow.Coflow, n int, opts Options) ([]fabric.Assignment, Stats, error) {
	var stats Stats
	if n <= 0 {
		return nil, stats, ErrTooSmall
	}
	if opts.LinkBps <= 0 {
		return nil, stats, fmt.Errorf("solstice: link bandwidth must be positive, got %v", opts.LinkBps)
	}
	if err := c.Validate(n); err != nil {
		return nil, stats, err
	}
	st.resize(n)

	// Accumulate demand bytes straight into the arena and scale to
	// processing time with the reference's exact operation order
	// (DemandMatrix accumulation, then *8 and /B per entry).
	p := st.p
	for i := range p {
		row := p[i]
		for j := range row {
			row[j] = 0
		}
	}
	for _, f := range c.Flows {
		p[f.Src][f.Dst] += f.Bytes
	}
	for i := range p {
		for j := range p[i] {
			p[i][j] = p[i][j] * 8 / opts.LinkBps
		}
	}

	// Quantize demand up to slot multiples before stuffing, as Solstice
	// does: with every entry a multiple of the slot, the power-of-two
	// threshold descent slices each entry along its binary digits and
	// terminates at r = slot, instead of fragmenting remainders into
	// ever-smaller slices that each pay δ. The slot tracks the smaller of
	// the switching timescale and the demand quantum, so fast links with
	// tiny flows still slice at the granularity of their demand. The
	// over-allocation (< one slot per flow) simply idles on the circuit.
	minPos := math.Inf(1)
	for i := range p {
		for j := range p[i] {
			if v := p[i][j]; v > 0 && v < minPos {
				minPos = v
			}
		}
	}
	slot := math.Min(opts.Delta/10, minPos/2)
	if slot > 0 && !math.IsInf(slot, 1) {
		for i := range p {
			for j := range p[i] {
				if p[i][j] > 0 {
					p[i][j] = math.Ceil(p[i][j]/slot) * slot
				}
			}
		}
	} else {
		slot = 0
	}

	ssp := opts.Prof.Start("solstice.stuff")
	stuffed, added := st.dec.Stuff(p)
	ssp.Finish()
	stats.StuffedBytes = added * opts.LinkBps / 8

	bsp := opts.Prof.Start("solstice.slice")
	asg, err := st.bigSlice(stuffed, slot)
	bsp.Finish()
	if err != nil {
		return nil, stats, err
	}
	stats.Assignments = len(asg)
	for _, a := range asg {
		stats.TotalDuration += a.Duration
	}
	return asg, stats, nil
}

// bigSlice decomposes the stuffed processing-time matrix into assignments
// with Solstice's BigSlice strategy: the slice length r starts at the
// smallest power of two (in slot units) covering the biggest entry and
// halves whenever no perfect matching exists over entries of at least r; a
// found matching is scheduled for exactly r seconds. Long slices therefore
// come first, and a demand entry is generally split across several slices
// at different r — the source of Solstice's extra circuit establishments
// (Figure 5 of the Sunflow paper). When the previous matching is still
// feasible at the current threshold it is reused, so consecutive identical
// assignments merge into one continuous circuit at execution time.
// Floating-point residue from the stuffing is swept up by a final
// maximal-matching phase sized by the smallest matched entry.
//
// It peels the stuffed matrix in place (the matrix is the Stuffer's own
// arena), replaces the dense reference's
// per-round O(N²) maxEntry sweep with a count of entries above tol (the loop
// only needs to know whether any remain — maxEntry(w) > tol ⟺ the count is
// positive), and maintains the scratch's adjacency bitset edge by edge while
// peeling, so the O(N²) rebuild happens only when the threshold halves. The
// previous matching is extended whenever still feasible, exactly as in the
// reference.
func (st *Stuffer) bigSlice(w [][]float64, slot float64) ([]fabric.Assignment, error) {
	n := len(w)
	tol := 1e-11 * (1 + st.dec.MaxLineSum(w))
	// One dense sweep: the starting threshold needs the true maximum, the
	// loop needs the population above tol.
	var max float64
	pos := 0
	for _, row := range w {
		for _, v := range row {
			if v > max {
				max = v
			}
			if v > tol {
				pos++
			}
		}
	}
	if max <= tol {
		return nil, nil
	}
	var r float64
	if slot > 0 {
		r = slot * math.Pow(2, math.Ceil(math.Log2(max/slot)))
	} else {
		r = math.Pow(2, math.Ceil(math.Log2(max)))
	}

	var out []fabric.Assignment
	st.prevOK = false
	st.adjMode = adjNone
	guard := 0
	for pos > 0 {
		guard++
		if guard > 64*n*n+4096 {
			return nil, fmt.Errorf("solstice: decomposition failed to converge (n=%d)", n)
		}
		if r > tol && (slot == 0 || r >= slot-tol) {
			var match []int
			if st.prevOK && feasibleAt(w, st.prev, r) {
				match = st.prev
			} else {
				if st.adjMode != adjThreshold || st.adjR != r {
					st.scratch.AdjacencyAbove(w, r)
					st.adjMode, st.adjR = adjThreshold, r
				}
				// An empty row or uncovered column already rules out a
				// perfect matching; skip the Hopcroft–Karp run (which would
				// return size < n) and halve immediately.
				if st.scratch.FullSupport() {
					var size int
					st.match, size = st.scratch.MaxMatching(st.match)
					if size == n {
						match = st.match
					}
				}
			}
			if match == nil {
				r /= 2
				continue
			}
			pos -= st.peel(w, match, r, tol)
			out = append(out, fabric.Assignment{Match: append([]int(nil), match...), Duration: r})
			copy(st.prev, match)
			st.prevOK = true
			continue
		}
		// Imbalanced residue: drain whatever maximal matching the positive
		// entries admit, sized by its smallest member.
		if st.adjMode != adjResidue {
			st.scratch.AdjacencyGreater(w, tol)
			st.adjMode = adjResidue
		}
		var size int
		st.match, size = st.scratch.MaxMatching(st.match)
		if size == 0 {
			break
		}
		match := st.match
		dur := math.Inf(1)
		for i, j := range match {
			if j >= 0 && w[i][j] > tol && w[i][j] < dur {
				dur = w[i][j]
			}
		}
		if math.IsInf(dur, 1) {
			break
		}
		pos -= st.peelPartial(w, match, dur, tol)
		out = append(out, fabric.Assignment{Match: append([]int(nil), match...), Duration: dur})
		st.prevOK = false
	}
	return out, nil
}

// peel subtracts r from every matched entry, zeroes residue below tol,
// clears the adjacency edges of entries that fell below the adjacency's
// threshold, and returns how many entries left the above-tol population.
// Matched entries were at least r > tol before the subtraction.
func (st *Stuffer) peel(w [][]float64, match []int, r, tol float64) int {
	dropped := 0
	for i, j := range match {
		v := w[i][j] - r
		if v < tol {
			v = 0
		}
		w[i][j] = v
		if !(v > tol) {
			dropped++
		}
		// The adjacency tracks threshold st.adjR (which can lag r when the
		// previous matching was reused without a rebuild); values only
		// decrease, so edges only disappear.
		if v < st.adjR {
			st.scratch.ClearEdge(i, j)
		}
	}
	return dropped
}

// peelPartial is peel for a partial residue matching (unmatched rows
// untouched, adjacency maintained against the strict > tol edge set).
func (st *Stuffer) peelPartial(w [][]float64, match []int, dur, tol float64) int {
	dropped := 0
	for i, j := range match {
		if j < 0 {
			continue
		}
		v := w[i][j] - dur
		if v < tol {
			v = 0
		}
		w[i][j] = v
		if !(v > tol) {
			dropped++
			st.scratch.ClearEdge(i, j)
		}
	}
	return dropped
}

// feasibleAt reports whether every circuit of match still has at least r
// demand, i.e. the previous assignment can simply be extended.
func feasibleAt(w [][]float64, match []int, r float64) bool {
	if match == nil {
		return false
	}
	for i, j := range match {
		if j < 0 || w[i][j] < r {
			return false
		}
	}
	return true
}

// Run schedules the Coflow and executes the result on the fabric, returning
// the execution outcome. It is the one-call entry point used by the
// intra-Coflow experiments.
func Run(c *coflow.Coflow, n int, opts Options, model fabric.Model) (fabric.ExecResult, Stats, error) {
	passStart := time.Now()
	psp := opts.Prof.Start("sched.pass")
	asg, st, err := Schedule(c, n, opts)
	elapsed := time.Since(passStart).Seconds()
	psp.FinishWith(elapsed)
	if o := opts.Obs; o != nil {
		o.SchedPasses.Inc()
		o.SchedSeconds.Add(elapsed)
		o.SchedPassTime.Observe(elapsed)
		o.Reservations.Add(int64(st.Assignments))
	}
	if err != nil {
		return fabric.ExecResult{}, st, err
	}
	esp := opts.Prof.Start("fabric.execute")
	res, err := fabric.ExecuteObs(c.DemandMatrix(n), asg, opts.LinkBps, opts.Delta, 0, model, opts.Obs)
	esp.Finish()
	return res, st, err
}
