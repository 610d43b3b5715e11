// Package bipartite implements maximum-weight bipartite matching, the
// primitive behind the paper's "graph matching based selection" of Top-K
// candidate sets (§III-B, Step 2): repeatedly find a maximum-weight matching
// between anonymized and auxiliary users and peel the matched pairs into the
// candidate sets.
//
// MaxWeightMatching is an exact O(n^3) Hungarian algorithm (shortest
// augmenting paths with potentials); GreedyMatching is an O(E log E)
// approximation for large instances.
package bipartite

import (
	"math"
	"sort"
)

// MaxWeightMatching computes a maximum-weight matching of the complete
// bipartite graph whose weights are given by w (rows = left side, columns =
// right side). Every left node is matched when len(w) <= len(w[0]); the
// returned slice maps each left node to its matched right node (or -1 if
// there are more left nodes than right nodes and the node stayed unmatched).
//
// Weights may be any finite float64; the matching maximizes the total
// weight over all perfect-on-the-smaller-side matchings.
func MaxWeightMatching(w [][]float64) []int {
	n := len(w)
	if n == 0 {
		return nil
	}
	m := len(w[0])
	transposed := false
	if n > m {
		// Hungarian below needs rows <= cols; transpose and invert at the end.
		wt := make([][]float64, m)
		for j := 0; j < m; j++ {
			wt[j] = make([]float64, n)
			for i := 0; i < n; i++ {
				wt[j][i] = w[i][j]
			}
		}
		w = wt
		n, m = m, n
		transposed = true
	}

	// Convert to a minimization problem: cost = maxW - w.
	maxW := math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if w[i][j] > maxW {
				maxW = w[i][j]
			}
		}
	}
	if math.IsInf(maxW, -1) {
		maxW = 0
	}

	// Hungarian algorithm with row/column potentials (1-indexed internals).
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row matched to column j
	way := make([]int, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, m+1)
		used := make([]bool, m+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := math.Inf(1)
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := (maxW - w[i0-1][j-1]) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
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
		match[i] = -1
	}
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			match[p[j]-1] = j - 1
		}
	}
	if !transposed {
		return match
	}
	// Invert: original left side had len(w[0]) nodes (now columns).
	inv := make([]int, m)
	for i := range inv {
		inv[i] = -1
	}
	for i, j := range match {
		if j >= 0 {
			inv[j] = i
		}
	}
	return inv
}

// GreedyMatching approximates maximum-weight matching by taking edges in
// decreasing weight order. It is a 1/2-approximation and runs in
// O(nm log(nm)); use it when the exact algorithm is too slow. The returned
// slice maps left nodes to right nodes (-1 = unmatched).
func GreedyMatching(w [][]float64) []int {
	n := len(w)
	if n == 0 {
		return nil
	}
	m := len(w[0])
	type edge struct {
		i, j int
		w    float64
	}
	edges := make([]edge, 0, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			edges = append(edges, edge{i, j, w[i][j]})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].w != edges[b].w {
			return edges[a].w > edges[b].w
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	usedR := make([]bool, m)
	remaining := n
	if m < n {
		remaining = m
	}
	for _, e := range edges {
		if remaining == 0 {
			break
		}
		if match[e.i] < 0 && !usedR[e.j] {
			match[e.i] = e.j
			usedR[e.j] = true
			remaining--
		}
	}
	return match
}
