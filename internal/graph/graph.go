// Package graph implements the user correlation graph and its
// User-Data-Attribute (UDA) extension from §II-B of the De-Health paper.
//
// Nodes are users; an undirected edge connects two users who posted under
// the same thread, weighted by the number of distinct threads they
// co-discussed. The UDA extension attaches to every user the binary/weighted
// attribute set derived from the stylometric features.
//
// The package also provides the graph analytics used by the paper: degree
// distributions (Fig.7), connected components and label-propagation
// communities (Fig.8, Appendix B), landmark distance vectors (the global
// correlation features), and NCS vectors (the local correlation features).
package graph

import (
	"math"
	"math/rand"
	"sort"

	"dehealth/internal/corpus"
	"dehealth/internal/stylometry"
)

// Edge is one endpoint of a weighted undirected edge.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a weighted undirected user correlation graph.
//
// Edges are accumulated into per-node hash maps while the graph is being
// built (so AddEdge is O(1) even on dense co-discussion threads) and frozen
// into adjacency slices sorted by neighbor id on first read. Freezing is
// transparent: any read freezes a dirty graph, and AddEdge on a frozen
// graph splices the edge into the sorted adjacency in place, so incremental
// growth (AddNodes + a few edges per new node) stays cheap. Reads of a
// frozen graph are safe from many goroutines; mutation is single-goroutine.
type Graph struct {
	n        int
	adj      [][]Edge          // frozen adjacency, sorted by To; valid when building == nil
	building []map[int]float64 // edge accumulator, non-nil while building
}

// NewGraph creates an empty graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, building: make([]map[int]float64, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	g.Freeze()
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// AddNodes grows the graph by k isolated nodes and returns the index of the
// first new node. Works on building and frozen graphs alike; a frozen graph
// stays frozen (the new nodes simply have empty adjacency), so appending
// nodes never forces a re-freeze of the existing topology.
func (g *Graph) AddNodes(k int) int {
	first := g.n
	if k <= 0 {
		return first
	}
	g.n += k
	if g.building != nil {
		g.building = append(g.building, make([]map[int]float64, k)...)
	} else {
		g.adj = append(g.adj, make([][]Edge, k)...)
	}
	return first
}

// AddEdge inserts an undirected edge u—v with weight w, or adds w to the
// weight of the existing edge. Self-loops are ignored.
//
// On a frozen graph the edge is spliced into the sorted adjacency in place —
// O(deg) per endpoint — rather than thawing the whole graph back into
// accumulator maps. The incremental-ingest workload (a freshly appended node
// acquiring a handful of co-discussion edges) therefore never pays an O(E)
// rebuild; bulk construction should still go through a building (unfrozen)
// graph, where accumulation is O(1) per edge.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u == v {
		return
	}
	if g.building == nil {
		g.bumpFrozen(u, v, w)
		g.bumpFrozen(v, u, w)
		return
	}
	g.bump(u, v, w)
	g.bump(v, u, w)
}

// bumpFrozen adds w to the directed half-edge u→v of a frozen graph,
// inserting it at its sorted position when absent.
func (g *Graph) bumpFrozen(u, v int, w float64) {
	es := g.adj[u]
	i := sort.Search(len(es), func(k int) bool { return es[k].To >= v })
	if i < len(es) && es[i].To == v {
		es[i].Weight += w
		return
	}
	es = append(es, Edge{})
	copy(es[i+1:], es[i:])
	es[i] = Edge{To: v, Weight: w}
	g.adj[u] = es
}

func (g *Graph) bump(u, v int, w float64) {
	m := g.building[u]
	if m == nil {
		m = make(map[int]float64)
		g.building[u] = m
	}
	m[v] += w
}

// Freeze materializes the adjacency slices (sorted by neighbor id) and
// releases the edge-accumulator maps. Idempotent; every read method freezes
// implicitly, so calling it explicitly only matters to control when the
// one-time cost is paid.
func (g *Graph) Freeze() {
	if g.building == nil {
		return
	}
	adj := make([][]Edge, g.n)
	for u, m := range g.building {
		if len(m) == 0 {
			continue
		}
		es := make([]Edge, 0, len(m))
		for v, w := range m {
			es = append(es, Edge{To: v, Weight: w})
		}
		sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
		adj[u] = es
	}
	g.adj = adj
	g.building = nil
}

// Degree returns d_u, the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.Freeze()
	return len(g.adj[u])
}

// WeightedDegree returns wd_u, the sum of incident edge weights.
func (g *Graph) WeightedDegree(u int) float64 {
	g.Freeze()
	var s float64
	for _, e := range g.adj[u] {
		s += e.Weight
	}
	return s
}

// NCS returns u's Neighborhood Correlation Strength vector: the incident
// edge weights in decreasing order (§II-B).
func (g *Graph) NCS(u int) []float64 {
	g.Freeze()
	out := make([]float64, len(g.adj[u]))
	for i, e := range g.adj[u] {
		out[i] = e.Weight
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

// BFSDistances returns hop distances from src to every node; -1 marks
// unreachable nodes.
func (g *Graph) BFSDistances(src int) []int {
	g.Freeze()
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range g.adj[u] {
			if dist[e.To] < 0 {
				dist[e.To] = dist[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// WeightedDistances returns shortest-path distances from src where an edge
// of weight w has length 1/w (stronger interaction = closer), computed with
// Dijkstra. Unreachable nodes get +Inf.
func (g *Graph) WeightedDistances(src int) []float64 {
	g.Freeze()
	dist := make([]float64, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := &distHeap{items: []distItem{{node: src, d: 0}}}
	for h.Len() > 0 {
		it := h.pop()
		if it.d > dist[it.node] {
			continue
		}
		for _, e := range g.adj[it.node] {
			if e.Weight <= 0 {
				continue
			}
			nd := it.d + 1/e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				h.push(distItem{node: e.To, d: nd})
			}
		}
	}
	return dist
}

// distHeap is a minimal binary min-heap for Dijkstra.
type distItem struct {
	node int
	d    float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int { return len(h.items) }

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].d <= h.items[i].d {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].d < h.items[small].d {
			small = l
		}
		if r < len(h.items) && h.items[r].d < h.items[small].d {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// Components labels each node with a connected-component id (0-based,
// ordered by first-seen node) and returns the labels and component count.
func (g *Graph) Components() (labels []int, count int) {
	g.Freeze()
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = -1
	}
	for s := 0; s < g.n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.adj[u] {
				if labels[e.To] < 0 {
					labels[e.To] = count
					stack = append(stack, e.To)
				}
			}
		}
		count++
	}
	return labels, count
}

// LabelPropagation runs weighted synchronous-free label propagation
// community detection and returns a community label per node and the number
// of communities. Deterministic for a given rng seed.
func (g *Graph) LabelPropagation(rng *rand.Rand, maxIter int) (labels []int, count int) {
	g.Freeze()
	labels = make([]int, g.n)
	for i := range labels {
		labels[i] = i
	}
	order := rng.Perm(g.n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, u := range order {
			if len(g.adj[u]) == 0 {
				continue
			}
			// Pick the label with the largest incident weight.
			weight := map[int]float64{}
			for _, e := range g.adj[u] {
				weight[labels[e.To]] += e.Weight
			}
			best, bestW := labels[u], weight[labels[u]]
			// Deterministic tie-break: smallest label wins.
			keys := make([]int, 0, len(weight))
			for l := range weight {
				keys = append(keys, l)
			}
			sort.Ints(keys)
			for _, l := range keys {
				if weight[l] > bestW {
					best, bestW = l, weight[l]
				}
			}
			if best != labels[u] {
				labels[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Re-densify labels.
	remap := map[int]int{}
	for i, l := range labels {
		if _, ok := remap[l]; !ok {
			remap[l] = len(remap)
		}
		labels[i] = remap[l]
	}
	return labels, len(remap)
}

// DegreeFilter returns the subgraph induced by nodes with degree >= minDeg
// (used by the Fig.8 community-structure views), along with the kept node
// ids in the original graph.
func (g *Graph) DegreeFilter(minDeg int) (*Graph, []int) {
	g.Freeze()
	var keep []int
	newID := make([]int, g.n)
	for i := range newID {
		newID[i] = -1
	}
	for u := 0; u < g.n; u++ {
		if g.Degree(u) >= minDeg {
			newID[u] = len(keep)
			keep = append(keep, u)
		}
	}
	sub := NewGraph(len(keep))
	for _, u := range keep {
		for _, e := range g.adj[u] {
			if newID[e.To] >= 0 && u < e.To {
				sub.AddEdge(newID[u], newID[e.To], e.Weight)
			}
		}
	}
	sub.Freeze()
	return sub, keep
}

// DegreeCDF returns, for each x in xs, the fraction of nodes with degree <= x
// (Fig.7).
func (g *Graph) DegreeCDF(xs []int) []float64 {
	degs := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		degs[u] = g.Degree(u)
	}
	sort.Ints(degs)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(sort.SearchInts(degs, x+1)) / float64(len(degs))
	}
	return out
}

// AverageDegree returns the mean node degree.
func (g *Graph) AverageDegree() float64 {
	if g.n == 0 {
		return 0
	}
	total := 0
	for u := 0; u < g.n; u++ {
		total += g.Degree(u)
	}
	return float64(total) / float64(g.n)
}

// TopDegreeNodes returns the k nodes with the largest degree, in decreasing
// degree order (ties broken by node id). Used for landmark selection.
func (g *Graph) TopDegreeNodes(k int) []int {
	ids := make([]int, g.n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		da, db := g.Degree(ids[a]), g.Degree(ids[b])
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// BuildCorrelation builds the user correlation graph of a dataset: users i,j
// are connected iff they posted under the same thread; the edge weight is
// the number of distinct threads they co-discussed (§II-B).
func BuildCorrelation(d *corpus.Dataset) *Graph {
	g := NewGraph(len(d.Users))
	// Distinct participants per thread.
	participants := make(map[int][]int, len(d.Threads))
	seen := map[[2]int]bool{}
	for _, p := range d.Posts {
		key := [2]int{p.Thread, p.User}
		if !seen[key] {
			seen[key] = true
			participants[p.Thread] = append(participants[p.Thread], p.User)
		}
	}
	for _, us := range participants {
		sort.Ints(us)
		for i := 0; i < len(us); i++ {
			for j := i + 1; j < len(us); j++ {
				g.AddEdge(us[i], us[j], 1)
			}
		}
	}
	g.Freeze()
	return g
}

// UDA is the User-Data-Attribute graph: the correlation graph plus the
// per-user attribute sets A(u)/WA(u) derived from stylometric features.
type UDA struct {
	*Graph
	// Attrs[u] is the attribute set of user u.
	Attrs []stylometry.AttrSet
	// PostVectors[u] are the stylometric vectors of u's posts (kept for the
	// refined-DA classifier).
	PostVectors [][][]float64
}

// AppendNode grows the UDA graph by one user node carrying the given
// attribute set and post vectors, returning the new node's index. The
// caller is responsible for adding the node's co-discussion edges
// (AddEdge); features.Store.Append does both from its thread-participant
// index. Not safe to call concurrently with reads.
func (g *UDA) AppendNode(attrs stylometry.AttrSet, vecs [][]float64) int {
	u := g.AddNodes(1)
	g.Attrs = append(g.Attrs, attrs)
	g.PostVectors = append(g.PostVectors, vecs)
	return u
}

// BuildUDAFromVectors constructs the UDA graph of a dataset from precomputed
// per-user post vectors (postVectors[u] lists u's post vectors in post
// order, as UserTexts orders them). attrs may be nil, in which case the
// attribute sets are derived from the vectors; when supplied it must be the
// per-user UserAttributes projection of postVectors.
func BuildUDAFromVectors(d *corpus.Dataset, postVectors [][][]float64, attrs []stylometry.AttrSet) *UDA {
	g := BuildCorrelation(d)
	if attrs == nil {
		attrs = make([]stylometry.AttrSet, len(d.Users))
		for u, vs := range postVectors {
			attrs[u] = stylometry.UserAttributes(vs)
		}
	}
	return &UDA{Graph: g, Attrs: attrs, PostVectors: postVectors}
}
