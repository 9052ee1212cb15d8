package solstice

import (
	"fmt"
	"math"

	"sunflow/internal/bvn"
	"sunflow/internal/coflow"
	"sunflow/internal/fabric"
	"sunflow/internal/matching"
)

// This file holds the dense Solstice oracle the differential suite holds
// Stuffer.Schedule to, bit for bit (DESIGN.md §8).

// ScheduleReference is the dense implementation — per-call matrix clones,
// adjacency lists rebuilt per matching, O(N²) maxEntry sweeps — and the
// oracle of the differential suite.
func ScheduleReference(c *coflow.Coflow, n int, opts Options) ([]fabric.Assignment, Stats, error) {
	var st Stats
	if n <= 0 {
		return nil, st, ErrTooSmall
	}
	if opts.LinkBps <= 0 {
		return nil, st, fmt.Errorf("solstice: link bandwidth must be positive, got %v", opts.LinkBps)
	}
	if err := c.Validate(n); err != nil {
		return nil, st, err
	}

	// Work in processing-time units (seconds), as the decomposition's slot
	// durations are times.
	d := c.DemandMatrix(n)
	p := make([][]float64, n)
	for i := range d {
		p[i] = make([]float64, n)
		for j := range d[i] {
			p[i][j] = d[i][j] * 8 / opts.LinkBps
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

	stuffed, added := bvn.Stuff(p)
	st.StuffedBytes = added * opts.LinkBps / 8

	asg, err := bigSliceReference(stuffed, slot)
	if err != nil {
		return nil, st, err
	}
	st.Assignments = len(asg)
	for _, a := range asg {
		st.TotalDuration += a.Duration
	}
	return asg, st, nil
}

// bigSliceReference decomposes the stuffed processing-time matrix into
// assignments with Solstice's BigSlice strategy: the slice length r starts
// at the smallest power of two covering the biggest entry and halves
// whenever no perfect matching exists over entries of at least r; a found
// matching is scheduled for exactly r seconds. Long slices therefore come
// first, and a demand entry is generally split across several slices at
// different r — the source of Solstice's extra circuit establishments
// (Figure 5 of the Sunflow paper).
//
// When the previous matching is still feasible at the current threshold it
// is reused, so consecutive identical assignments merge into one continuous
// circuit at execution time. This keeps single-row and single-column
// Coflows near the behaviour §5.3.1 describes (effectively one flow per
// assignment) without changing the dense-Coflow characteristics.
// Floating-point residue from the stuffing is swept up by a final
// maximal-matching phase sized by the smallest matched entry.
func bigSliceReference(m [][]float64, slot float64) ([]fabric.Assignment, error) {
	n := len(m)
	w := bvn.Clone(m)
	max := maxEntry(w)
	// Residue below tol (relative to the schedule's scale) is noise from
	// stuffing arithmetic, not demand.
	tol := 1e-11 * (1 + bvn.MaxLineSum(m))
	if max <= tol {
		return nil, nil
	}
	// Slice lengths are powers of two in slot units, so quantized entries
	// are carved exactly along their binary digits and the descent stops at
	// one slot.
	var r float64
	if slot > 0 {
		r = slot * math.Pow(2, math.Ceil(math.Log2(max/slot)))
	} else {
		r = math.Pow(2, math.Ceil(math.Log2(max)))
	}

	var out []fabric.Assignment
	var prev []int
	guard := 0
	for maxEntry(w) > tol {
		guard++
		if guard > 64*n*n+4096 {
			return nil, fmt.Errorf("solstice: decomposition failed to converge (n=%d)", n)
		}
		if r > tol && (slot == 0 || r >= slot-tol) {
			match := prev
			if !feasibleAt(w, match, r) {
				match = matching.PerfectMatchingAbove(w, r)
			}
			if match == nil {
				r /= 2
				continue
			}
			for i, j := range match {
				w[i][j] -= r
				if w[i][j] < tol {
					w[i][j] = 0
				}
			}
			out = append(out, fabric.Assignment{Match: append([]int(nil), match...), Duration: r})
			prev = match
			continue
		}
		// Imbalanced residue: a perfect matching may no longer exist; drain
		// whatever maximal matching the positive entries admit, sized by its
		// smallest member.
		match := maximalMatchingAbove(w, tol)
		if match == nil {
			break
		}
		dur := math.Inf(1)
		for i, j := range match {
			if j >= 0 && w[i][j] > tol && w[i][j] < dur {
				dur = w[i][j]
			}
		}
		if math.IsInf(dur, 1) {
			break
		}
		for i, j := range match {
			if j < 0 {
				continue
			}
			w[i][j] -= dur
			if w[i][j] < tol {
				w[i][j] = 0
			}
		}
		out = append(out, fabric.Assignment{Match: append([]int(nil), match...), Duration: dur})
		prev = nil
	}
	return out, nil
}

// maximalMatchingAbove returns a maximum-cardinality matching over entries
// greater than tol, or nil when none exist. Unlike PerfectMatchingAbove it
// accepts partial matchings.
func maximalMatchingAbove(w [][]float64, tol float64) []int {
	n := len(w)
	adj := make([][]int, n)
	any := false
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if w[i][j] > tol {
				adj[i] = append(adj[i], j)
				any = true
			}
		}
	}
	if !any {
		return nil
	}
	match, size := matching.HopcroftKarp(n, adj)
	if size == 0 {
		return nil
	}
	return match
}

func maxEntry(m [][]float64) float64 {
	var max float64
	for _, row := range m {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}
