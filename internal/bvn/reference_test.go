package bvn

import (
	"fmt"
	"math"

	"sunflow/internal/matching"
)

// This file holds the dense reference kernels the differential suite holds
// Decomposer to, bit for bit (DESIGN.md §8): they clone their inputs and
// sweep full matrices.

// Sinkhorn scales the non-negative matrix m by alternately normalizing rows
// and columns until every line sum is within tol of 1, returning the scaled
// matrix. The zero pattern of m is preserved. It fails with ErrNoConverge
// after maxIter sweeps. This is the TMS pre-processing step; note that unlike
// Stuff it multiplies entries, which is why TMS "may heavily modify the
// original demand matrix" (§3.1.1).
func Sinkhorn(m [][]float64, tol float64, maxIter int) ([][]float64, error) {
	n := len(m)
	s := Clone(m)
	// Rows or columns with no demand at all can never reach sum 1; give them
	// a uniform virtual entry so the scaling is defined, mirroring TMS's
	// handling of empty lines.
	for i := 0; i < n; i++ {
		empty := true
		for j := 0; j < n; j++ {
			if s[i][j] > 0 {
				empty = false
				break
			}
		}
		if empty {
			for j := 0; j < n; j++ {
				s[i][j] = 1.0 / float64(n)
			}
		}
	}
	for j := 0; j < n; j++ {
		empty := true
		for i := 0; i < n; i++ {
			if s[i][j] > 0 {
				empty = false
				break
			}
		}
		if empty {
			for i := 0; i < n; i++ {
				s[i][j] += 1.0 / float64(n)
			}
		}
	}
	for iter := 0; iter < maxIter; iter++ {
		for i, sum := range RowSums(s) {
			if sum <= 0 {
				continue
			}
			for j := range s[i] {
				s[i][j] /= sum
			}
		}
		for j, sum := range ColSums(s) {
			if sum <= 0 {
				continue
			}
			for i := range s {
				s[i][j] /= sum
			}
		}
		if maxDeviation(s) <= tol {
			return s, nil
		}
	}
	return nil, fmt.Errorf("%w after %d iterations (deviation %.3g)", ErrNoConverge, maxIter, maxDeviation(s))
}

func maxDeviation(m [][]float64) float64 {
	var dev float64
	for _, s := range RowSums(m) {
		dev = math.Max(dev, math.Abs(s-1))
	}
	for _, s := range ColSums(m) {
		dev = math.Max(dev, math.Abs(s-1))
	}
	return dev
}

// Decompose performs the Birkhoff–von Neumann decomposition of the stuffed
// matrix m: it repeatedly extracts a perfect matching over the positive
// entries, weighted by the minimum matched entry, until the matrix is empty.
// The weights sum to MaxLineSum(m). m is not modified.
//
// Inputs whose line sums are only approximately equal (e.g. a Sinkhorn
// result at finite tolerance) decompose up to a residue of one part in 10⁵
// of the line sum; larger imbalance returns ErrNotDecomposable.
func Decompose(m [][]float64) ([]Permutation, error) {
	n := len(m)
	w := Clone(m)
	residueTol := 1e-5 * (1 + MaxLineSum(m))
	var perms []Permutation
	// Each extraction zeroes at least one entry, so at most n² iterations.
	for iter := 0; iter <= n*n+1; iter++ {
		if maxEntry(w) <= Eps {
			return perms, nil
		}
		match := matching.PerfectMatchingAbove(w, Eps)
		if match == nil {
			if maxEntry(w) <= residueTol {
				return perms, nil
			}
			return nil, ErrNotDecomposable
		}
		weight := math.Inf(1)
		for i, j := range match {
			if w[i][j] < weight {
				weight = w[i][j]
			}
		}
		for i, j := range match {
			w[i][j] -= weight
			if w[i][j] < Eps {
				w[i][j] = 0
			}
		}
		perms = append(perms, Permutation{Match: append([]int(nil), match...), Weight: weight})
	}
	return nil, fmt.Errorf("bvn: decomposition exceeded %d iterations", n*n+1)
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
