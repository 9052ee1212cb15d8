package matching

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHopcroftKarpPerfect(t *testing.T) {
	// Complete bipartite graph has a perfect matching.
	n := 5
	adj := make([][]int, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			adj[i] = append(adj[i], j)
		}
	}
	match, size := HopcroftKarp(n, adj)
	if size != n {
		t.Fatalf("size = %d, want %d", size, n)
	}
	if !IsMatching(match) {
		t.Fatalf("not a matching: %v", match)
	}
}

func TestHopcroftKarpPartial(t *testing.T) {
	// Two left vertices contend for the same single right vertex.
	adj := [][]int{{0}, {0}, {1}}
	match, size := HopcroftKarp(3, adj)
	if size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	if !IsMatching(match) {
		t.Fatalf("not a matching: %v", match)
	}
}

func TestHopcroftKarpAugments(t *testing.T) {
	// Requires an augmenting path: greedy left-to-right would match 0-0 and
	// strand vertex 1.
	adj := [][]int{{0, 1}, {0}}
	_, size := HopcroftKarp(2, adj)
	if size != 2 {
		t.Fatalf("size = %d, want 2 (augmenting path missed)", size)
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	match, size := HopcroftKarp(3, make([][]int, 3))
	if size != 0 {
		t.Fatalf("size = %d, want 0", size)
	}
	for _, m := range match {
		if m != -1 {
			t.Fatalf("unexpected match %v", match)
		}
	}
}

func TestPerfectMatchingAbove(t *testing.T) {
	m := [][]float64{
		{5, 1},
		{1, 5},
	}
	if got := PerfectMatchingAbove(m, 2); got == nil || got[0] != 0 || got[1] != 1 {
		t.Fatalf("threshold 2: got %v, want identity", got)
	}
	if got := PerfectMatchingAbove(m, 10); got != nil {
		t.Fatalf("threshold 10: got %v, want nil", got)
	}
	// Zero entries are never used, even with threshold 0.
	z := [][]float64{{0, 1}, {0, 1}}
	if got := PerfectMatchingAbove(z, 0); got != nil {
		t.Fatalf("zero columns: got %v, want nil", got)
	}
}

func TestMaxWeightMatchingSimple(t *testing.T) {
	w := [][]float64{
		{10, 2},
		{2, 10},
	}
	match := MaxWeightMatching(w)
	if MatchingWeight(w, match) != 20 {
		t.Fatalf("weight = %v, want 20 (match %v)", MatchingWeight(w, match), match)
	}
}

func TestMaxWeightMatchingPrefersTotal(t *testing.T) {
	// Greedy would take 10 at (0,0) for a total of 10+1=11; optimum is
	// 9+9=18.
	w := [][]float64{
		{10, 9},
		{9, 1},
	}
	match := MaxWeightMatching(w)
	if got := MatchingWeight(w, match); got != 18 {
		t.Fatalf("weight = %v, want 18 (match %v)", got, match)
	}
}

func TestMaxWeightMatchingSkipsZeros(t *testing.T) {
	w := [][]float64{
		{5, 0},
		{0, 0},
	}
	match := MaxWeightMatching(w)
	if match[0] != 0 {
		t.Fatalf("match[0] = %d, want 0", match[0])
	}
	if match[1] != -1 {
		t.Fatalf("match[1] = %d, want -1 (zero-weight edge used)", match[1])
	}
}

func TestMaxWeightMatchingEmpty(t *testing.T) {
	if got := MaxWeightMatching(nil); got != nil {
		t.Fatalf("MaxWeightMatching(nil) = %v", got)
	}
}

// bruteForceMax computes the optimum assignment weight by enumerating
// permutations (small n only).
func bruteForceMax(w [][]float64) float64 {
	n := len(w)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := 0.0
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			var sum float64
			for i, j := range perm {
				sum += w[i][j]
			}
			if sum > best {
				best = sum
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best
}

func TestQuickMaxWeightMatchesBruteForce(t *testing.T) {
	// Property: the Hungarian result equals brute force on random matrices
	// up to 6x6.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
			for j := range w[i] {
				w[i][j] = float64(rng.Intn(50))
			}
		}
		match := MaxWeightMatching(w)
		if !IsMatching(match) {
			return false
		}
		got := MatchingWeight(w, match)
		want := bruteForceMax(w)
		return got >= want-1e-9 && got <= want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickHopcroftKarpMaximal(t *testing.T) {
	// Property: HK produces a valid matching and no single edge can extend
	// it (maximality is implied by maximum cardinality).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		adj := make([][]int, n)
		for i := range adj {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					adj[i] = append(adj[i], j)
				}
			}
		}
		match, size := HopcroftKarp(n, adj)
		if !IsMatching(match) {
			return false
		}
		got := 0
		for _, m := range match {
			if m >= 0 {
				got++
			}
		}
		if got != size {
			return false
		}
		// No free left vertex may have a free right neighbour.
		matchedR := map[int]bool{}
		for _, m := range match {
			if m >= 0 {
				matchedR[m] = true
			}
		}
		for i, m := range match {
			if m >= 0 {
				continue
			}
			for _, j := range adj[i] {
				if !matchedR[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// MatchingWeight sums w[i][match[i]] over matched pairs.
func MatchingWeight(w [][]float64, match []int) float64 {
	var sum float64
	for i, j := range match {
		if j >= 0 {
			sum += w[i][j]
		}
	}
	return sum
}

// IsMatching reports whether match (left-to-right, -1 for unmatched) pairs
// each right vertex at most once. Out-of-range right vertices (>= len(match))
// also fail: on an n-port fabric there are only n output ports.
func IsMatching(match []int) bool {
	seen := make([]bool, len(match))
	for _, j := range match {
		if j < 0 {
			continue
		}
		if j >= len(match) || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}
