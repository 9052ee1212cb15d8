// Package matching provides the bipartite matching algorithms the circuit
// schedulers are built on: Hopcroft–Karp maximum-cardinality matching (used
// by the Birkhoff–von Neumann decomposition and by Solstice to extract
// perfect matchings from thresholded demand matrices) and the Hungarian
// algorithm for maximum-weight matchings (used by the Edmond baseline, which
// the literature names after Edmonds' matching algorithm even though on a
// bipartite switch fabric the Hungarian method computes the same matching).
//
// Graphs are bipartite with n left vertices (input ports) and n right
// vertices (output ports); a matching is reported as a slice match of length
// n where match[i] is the right vertex matched to left vertex i, or -1.
//
// The package functions in this file are the dense reference kernels: they
// allocate their working state per call and scan the full matrix. The hot
// paths live on Scratch (scratch.go) — bitset adjacency, reusable buffers,
// warm-startable matchings — and are proven bit-identical to these
// references by the seeded differential suite (differential_test.go), per
// DESIGN.md §8.
package matching

// unmatched marks a vertex with no partner.
const unmatched = -1

// HopcroftKarp computes a maximum-cardinality matching of the bipartite graph
// with n left and n right vertices and the given adjacency lists (adj[i]
// lists the right vertices adjacent to left vertex i). It returns the
// left-to-right matching and its size. Runs in O(E·√V).
func HopcroftKarp(n int, adj [][]int) (match []int, size int) {
	matchL := make([]int, n)
	matchR := make([]int, n)
	for i := range matchL {
		matchL[i] = unmatched
		matchR[i] = unmatched
	}
	dist := make([]int, n)
	queue := make([]int, 0, n)

	const inf = int(^uint(0) >> 1)

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < n; u++ {
			if matchL[u] == unmatched {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range adj[u] {
				w := matchR[v]
				if w == unmatched {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range adj[u] {
			w := matchR[v]
			if w == unmatched || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < n; u++ {
			if matchL[u] == unmatched && dfs(u) {
				size++
			}
		}
	}
	return matchL, size
}

// PerfectMatchingAbove returns a perfect matching of the n×n matrix using
// only entries with value >= threshold, or nil if no such perfect matching
// exists. It is the matching primitive of Solstice's BigSlice step and of the
// BvN decomposition (where threshold is any positive value selecting the
// non-zero entries).
func PerfectMatchingAbove(m [][]float64, threshold float64) []int {
	n := len(m)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if m[i][j] >= threshold && m[i][j] > 0 {
				adj[i] = append(adj[i], j)
			}
		}
	}
	match, size := HopcroftKarp(n, adj)
	if size < n {
		return nil
	}
	return match
}

// MaxWeightMatching computes a maximum-weight matching of the complete
// bipartite graph whose edge weights are w[i][j] >= 0, using the Hungarian
// algorithm in O(n³). Zero-weight edges are treated as absent: the returned
// matching never pairs a left vertex with a right vertex of zero weight
// (such vertices are reported unmatched, -1), so the result is a
// maximum-weight matching rather than a maximum-weight perfect matching.
// This is the one-assignment-at-a-time primitive of the Edmond scheduler.
func MaxWeightMatching(w [][]float64) []int {
	n := len(w)
	if n == 0 {
		return nil
	}
	// Hungarian algorithm on the cost matrix c = maxW - w would force a
	// perfect matching; instead solve max-weight assignment directly with
	// potentials over weights, then strip zero-weight pairs.
	match := hungarianMax(w)
	for i, j := range match {
		if j >= 0 && w[i][j] <= 0 {
			match[i] = unmatched
		}
	}
	return match
}

// hungarianMax solves the maximum-weight perfect assignment for the n×n
// weight matrix using the potentials ("shortest augmenting path") form of
// the Hungarian algorithm, by minimizing cost c[i][j] = -w[i][j].
func hungarianMax(w [][]float64) []int {
	n := len(w)
	const infIdx = 0
	inf := func() float64 { return 1e300 }

	// 1-based arrays per the classical formulation. minv and used are reset,
	// not reallocated, per assigned row: the augmentation loop runs n times
	// and the old per-row allocations dominated the Hungarian's profile.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1) // p[j]: left vertex assigned to right j (0 = none)
	way := make([]int, n+1)
	minv := make([]float64, n+1)
	used := make([]bool, n+1)

	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf()
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf()
			j1 := infIdx
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -w[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	match := make([]int, n)
	for i := range match {
		match[i] = unmatched
	}
	for j := 1; j <= n; j++ {
		if p[j] != 0 {
			match[p[j]-1] = j - 1
		}
	}
	return match
}
