package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs: the
// smallest sample with at least q·n samples at or below it. NaN when empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the repeat mode's spreads can be compared with
// ones computed that way. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		// Python clamps j into [1, n-1] before taking delta.
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}
