// Package bvn implements the matrix machinery behind the preemptive circuit
// schedulers studied in the Sunflow paper: additive stuffing of a demand
// matrix to equal row/column sums, Sinkhorn scaling toward a doubly
// stochastic matrix, and the Birkhoff–von Neumann (BvN) decomposition of a
// stuffed matrix into weighted permutation matrices.
//
// TMS (Mordia, SIGCOMM'13) scales the demand matrix and BvN-decomposes it;
// Solstice (CoNEXT'15) stuffs the matrix and extracts permutations with a
// threshold-halving variant of the same idea. Both are built from this
// package plus package matching.
//
// The package-level functions in this file are dense helpers that clone
// their inputs and sweep full matrices. The schedulers run on Decomposer
// (decomposer.go), which reuses arena matrices, nonzero index lists and a
// matching scratch across calls; the differential suite proves it
// bit-identical to the dense Sinkhorn and Decompose kept in the package
// tests (DESIGN.md §8).
package bvn

import (
	"errors"
	"math"
)

// Eps is the absolute tolerance below which matrix entries are treated as
// zero during decomposition, guarding against floating-point residue.
const Eps = 1e-9

// Permutation is one term of a BvN decomposition: a (possibly partial)
// one-to-one assignment of input ports to output ports, active with the
// given weight. Match[i] is the output port assigned to input port i, or -1.
type Permutation struct {
	Match  []int
	Weight float64
}

// RowSums returns the per-row sums of m.
func RowSums(m [][]float64) []float64 {
	sums := make([]float64, len(m))
	for i, row := range m {
		for _, v := range row {
			sums[i] += v
		}
	}
	return sums
}

// ColSums returns the per-column sums of m.
func ColSums(m [][]float64) []float64 {
	if len(m) == 0 {
		return nil
	}
	sums := make([]float64, len(m[0]))
	for _, row := range m {
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// MaxLineSum returns the largest row or column sum of m — the quantity the
// packet-switched lower bound TpL is built from, and the target line sum for
// stuffing.
func MaxLineSum(m [][]float64) float64 {
	var max float64
	for _, s := range RowSums(m) {
		max = math.Max(max, s)
	}
	for _, s := range ColSums(m) {
		max = math.Max(max, s)
	}
	return max
}

// Clone returns a deep copy of m.
func Clone(m [][]float64) [][]float64 {
	c := make([][]float64, len(m))
	for i, row := range m {
		c[i] = append([]float64(nil), row...)
	}
	return c
}

// Stuff returns a copy of the non-negative n×n matrix m with dummy demand
// added so that every row and column sums to MaxLineSum(m). The second
// return value is the total dummy demand added. Stuffing is the
// pre-processing step shared by TMS and Solstice; the dummy demand is what
// later causes the spurious "idle circuit" assignments discussed in §3.1.1.
func Stuff(m [][]float64) ([][]float64, float64) {
	n := len(m)
	s := Clone(m)
	target := MaxLineSum(s)
	rowSlack := make([]float64, n)
	colSlack := make([]float64, n)
	for i, sum := range RowSums(s) {
		rowSlack[i] = target - sum
	}
	for j, sum := range ColSums(s) {
		colSlack[j] = target - sum
	}
	var added float64
	// Total row slack equals total column slack, so a greedy two-pointer
	// sweep stuffs the matrix exactly.
	i, j := 0, 0
	for i < n && j < n {
		if rowSlack[i] <= Eps {
			i++
			continue
		}
		if colSlack[j] <= Eps {
			j++
			continue
		}
		d := math.Min(rowSlack[i], colSlack[j])
		s[i][j] += d
		rowSlack[i] -= d
		colSlack[j] -= d
		added += d
	}
	return s, added
}

// ErrNoConverge is returned by Decomposer.Sinkhorn when the iteration fails
// to reach the requested tolerance (for example because the matrix's zero
// pattern admits no doubly stochastic scaling).
var ErrNoConverge = errors.New("bvn: sinkhorn iteration did not converge")

// ErrNotDecomposable is returned by Decomposer.Decompose when no perfect
// matching exists on the positive entries of a non-empty matrix, meaning the
// input was not stuffed to equal line sums.
var ErrNotDecomposable = errors.New("bvn: matrix is not decomposable (unequal line sums?)")
