// Growth of the anonymized side. The caches keep the ħ landmark-rooted
// distance arrays their closeness rows come from, so SyncAnon repairs them
// where the new edges reach instead of searching the whole graph per new
// node, and leaves the caches equal, bit for bit, to what NewScorer builds
// over the grown graph with the same landmarks.

package similarity

import (
	"math"
	"slices"

	"dehealth/internal/graph"
)

// newAnonCaches builds the anonymized-side caches of g from scratch, with
// the given landmarks pinned.
func newAnonCaches(g *graph.UDA, landmarks []int) *scorerCaches {
	c := &scorerCaches{landmarks1: landmarks, hbar1: len(landmarks), owned: true}
	c.ncs1, c.ncsOff1, c.ncsNorm1 = flattenRagged(cacheNCS(g))
	c.hop1, c.wd1 = landmarkDistances(g, landmarks)
	c.close1, c.closeNorm1, c.wcl1, c.wclNorm1 = closenessRows(c.hop1, c.wd1, g.NumNodes())
	return c
}

// landmarkDistances runs one BFS and one Dijkstra from every landmark.
// Landmarks are the ħ top-degree users (sorted by decreasing degree, as
// §III-B prescribes), selected by the caller.
func landmarkDistances(g *graph.UDA, landmarks []int) (hop [][]int32, wd [][]float64) {
	hop, wd = make([][]int32, len(landmarks)), make([][]float64, len(landmarks))
	for li, l := range landmarks {
		bfs := g.BFSDistances(l)
		hop[li] = make([]int32, len(bfs))
		for u, h := range bfs {
			hop[li][u] = int32(h)
		}
		wd[li] = g.WeightedDistances(l)
	}
	return hop, wd
}

// closenessRows lays the first n nodes' closeness rows out row-major, one
// row of len(hop) entries per node, with their norms.
func closenessRows(hop [][]int32, wd [][]float64, n int) (close, closeNorm, wcl, wclNorm []float64) {
	h := len(hop)
	close, wcl = make([]float64, n*h), make([]float64, n*h)
	closeNorm, wclNorm = make([]float64, n), make([]float64, n)
	for u := 0; u < n; u++ {
		closeNorm[u], wclNorm[u] = closenessRow(hop, wd, u, close[u*h:(u+1)*h], wcl[u*h:(u+1)*h])
	}
	return close, closeNorm, wcl, wclNorm
}

// closenessRow writes node u's closeness to each landmark, 1/(1+d) or 0
// when unreachable, into cl by hop count and into wc by weighted distance,
// and returns the two rows' norms.
func closenessRow(hop [][]int32, wd [][]float64, u int, cl, wc []float64) (clNorm, wcNorm float64) {
	for li := range hop {
		cl[li], wc[li] = 0, 0
		if h := hop[li][u]; h >= 0 {
			cl[li] = 1 / (1 + float64(h))
		}
		if d := wd[li][u]; !math.IsInf(d, 1) {
			wc[li] = 1 / (1 + d)
		}
	}
	return l2norm(cl), l2norm(wc)
}

// SyncAnon extends the anonymized-side caches over nodes appended to G1
// since the scorer was built or last synced (features.Store.Append), and
// returns the number of nodes added. Afterwards every anonymized-side cache
// — NCS rows, closeness rows and their norms, old nodes' included — equals
// bit for bit what NewScorer builds over the grown graph with the landmarks
// pinned at construction. A rebuild re-pins landmarks; SyncAnon never does.
//
// Precondition: every edge added to G1 since the last sync touches one of
// the appended nodes. features.Store.Append only adds such edges (a new
// user's co-discussion edges).
//
// The repair relaxes, decrease-only, each landmark's hop and weighted
// distance arrays from the new nodes, which start at the minimum over their
// neighbours. An added edge never lengthens a path, so this reaches the
// same fixpoint a fresh search does: both sum weighted distances outward
// from the landmark, and an edge length 1/w never vanishes against a
// distance. The closeness rows of exactly the nodes whose distance dropped
// are rewritten, and so are the NCS rows of the new nodes' neighbours. The
// cost follows the nodes the new edges reach, plus one move of the packed
// NCS array past the first row that grew.
//
// A scorer restored from Parts has no distance arrays, and its caches may
// be views of a read-only mapping: its first SyncAnon rebuilds the
// anonymized side into fresh arrays (ħ BFS and Dijkstra runs), and later
// ones repair. Every scorer sharing these caches through Reweighted or
// Shard observes the sync. Not safe to run concurrently with Score; the
// serving layer serializes ingestion against queries.
func (s *Scorer) SyncAnon() int {
	c, n := s.c, s.g1.NumNodes()
	n0 := c.numAnon()
	if n0 == n {
		return 0
	}
	if !c.owned {
		*c = *newAnonCaches(s.g1, c.landmarks1)
	} else {
		c.grow(s.g1, n0)
	}
	return n - n0
}

// grow repairs owned caches over the nodes [n0, NumNodes()).
func (c *scorerCaches) grow(g *graph.UDA, n0 int) {
	n, h := g.NumNodes(), c.hbar1
	var (
		q       distQueue
		lowered []int // old nodes whose distance to some landmark dropped
	)
	for li := range c.landmarks1 {
		lowered = c.relaxHops(g, li, n0, &q, lowered)
		lowered = c.relaxWeighted(g, li, n0, &q, lowered)
	}
	c.close1 = append(c.close1, make([]float64, (n-n0)*h)...)
	c.wcl1 = append(c.wcl1, make([]float64, (n-n0)*h)...)
	c.closeNorm1 = append(c.closeNorm1, make([]float64, n-n0)...)
	c.wclNorm1 = append(c.wclNorm1, make([]float64, n-n0)...)
	slices.Sort(lowered)
	for _, u := range slices.Compact(lowered) {
		c.setCloseRow(u)
	}
	for u := n0; u < n; u++ {
		c.setCloseRow(u)
	}
	c.growNCS(g, n0)
}

func (c *scorerCaches) setCloseRow(u int) {
	h := c.hbar1
	c.closeNorm1[u], c.wclNorm1[u] = closenessRow(c.hop1, c.wd1, u, c.close1[u*h:(u+1)*h], c.wcl1[u*h:(u+1)*h])
}

// relaxHops extends landmark li's hop counts over the nodes [n0, n), each
// new node starting at one more than its nearest neighbour, and spreads
// every decrease outward in hop order. It appends each old node it lowers
// to lowered.
func (c *scorerCaches) relaxHops(g *graph.UDA, li, n0 int, q *distQueue, lowered []int) []int {
	n := g.NumNodes()
	hop := append(c.hop1[li], make([]int32, n-n0)...)
	c.hop1[li] = hop
	for u := n0; u < n; u++ {
		hop[u] = -1
	}
	*q = (*q)[:0]
	for u := n0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			if hv := hop[e.To]; hv >= 0 && (hop[u] < 0 || hv+1 < hop[u]) {
				hop[u] = hv + 1
			}
		}
		if hop[u] >= 0 {
			q.push(u, float64(hop[u]))
		}
	}
	for len(*q) > 0 {
		x, d := q.pop()
		if d > float64(hop[x]) {
			continue // lowered again after this push
		}
		for _, e := range g.Neighbors(x) {
			if v := e.To; hop[v] < 0 || hop[x]+1 < hop[v] {
				hop[v] = hop[x] + 1
				q.push(v, float64(hop[v]))
				if v < n0 {
					lowered = append(lowered, v)
				}
			}
		}
	}
	return lowered
}

// relaxWeighted is relaxHops for landmark li's weighted distances, with
// graph.WeightedDistances' edge lengths (1/w; edges of weight <= 0 are
// skipped) added in the same order, so a repaired distance has the bits of
// a fresh one.
func (c *scorerCaches) relaxWeighted(g *graph.UDA, li, n0 int, q *distQueue, lowered []int) []int {
	n := g.NumNodes()
	wd := append(c.wd1[li], make([]float64, n-n0)...)
	c.wd1[li] = wd
	for u := n0; u < n; u++ {
		wd[u] = math.Inf(1)
	}
	*q = (*q)[:0]
	for u := n0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			if e.Weight > 0 {
				if d := wd[e.To] + 1/e.Weight; d < wd[u] {
					wd[u] = d
				}
			}
		}
		if !math.IsInf(wd[u], 1) {
			q.push(u, wd[u])
		}
	}
	for len(*q) > 0 {
		x, d := q.pop()
		if d > wd[x] {
			continue
		}
		for _, e := range g.Neighbors(x) {
			if e.Weight <= 0 {
				continue
			}
			if nd := d + 1/e.Weight; nd < wd[e.To] {
				wd[e.To] = nd
				q.push(e.To, nd)
				if e.To < n0 {
					lowered = append(lowered, e.To)
				}
			}
		}
	}
	return lowered
}

// growNCS rewrites the NCS rows of the old nodes adjacent to the nodes
// [n0, n), each of which gained one entry per new neighbour, and appends
// the new nodes' rows. The flat array stays packed in node order: walking
// the grown rows back to front, the rows after each one move right by the
// growth up to it, so the tail past the first grown row moves once.
func (c *scorerCaches) growNCS(g *graph.UDA, n0 int) {
	n := g.NumNodes()
	var grown []int
	for u := n0; u < n; u++ {
		for _, e := range g.Neighbors(u) {
			if e.To < n0 {
				grown = append(grown, e.To)
			}
		}
	}
	slices.Sort(grown)
	grown = slices.Compact(grown)
	rows := make([][]float64, len(grown))
	shift := 0
	for i, v := range grown {
		rows[i] = g.NCS(v)
		shift += len(rows[i]) - (c.ncsOff1[v+1] - c.ncsOff1[v])
	}
	off, end := c.ncsOff1, len(c.ncs1)
	c.ncs1 = append(c.ncs1, make([]float64, shift)...)
	last := n0 // offsets (v, last] move with the rows after v
	for i := len(grown) - 1; i >= 0; i-- {
		v := grown[i]
		lo, hi := off[v], off[v+1]
		copy(c.ncs1[hi+shift:], c.ncs1[hi:end])
		for x := v + 1; x <= last; x++ {
			off[x] += shift
		}
		shift -= len(rows[i]) - (hi - lo)
		copy(c.ncs1[lo+shift:], rows[i])
		c.ncsNorm1[v] = l2norm(rows[i])
		end, last = lo, v
	}
	for u := n0; u < n; u++ {
		row := g.NCS(u)
		c.ncs1 = append(c.ncs1, row...)
		c.ncsOff1 = append(c.ncsOff1, len(c.ncs1))
		c.ncsNorm1 = append(c.ncsNorm1, l2norm(row))
	}
}

// distQueue is a binary min-heap of (node, distance) entries.
type distQueue []distEntry

type distEntry struct {
	node int
	d    float64
}

func (q *distQueue) push(node int, d float64) {
	*q = append(*q, distEntry{node, d})
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *distQueue) pop() (int, float64) {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].d < h[small].d {
			small = l
		}
		if r < len(h) && h[r].d < h[small].d {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*q = h
	return top.node, top.d
}
