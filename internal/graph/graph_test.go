package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dehealth/internal/corpus"
	"dehealth/internal/nlp/lexicon"
	"dehealth/internal/stylometry"
)

// neighbors returns u's adjacency list, sorted by neighbor id.
func (g *Graph) neighbors(u int) []Edge {
	g.Freeze()
	return g.adj[u]
}

// edgeWeight returns the weight of edge u—v, or 0 if absent.
func (g *Graph) edgeWeight(u, v int) float64 {
	for _, e := range g.neighbors(u) {
		if e.To == v {
			return e.Weight
		}
	}
	return 0
}

// buildUDA extracts every post of d with ex, one user at a time, and
// builds the UDA graph over the vectors.
func buildUDA(d *corpus.Dataset, ex *stylometry.Extractor) *UDA {
	vecs := make([][][]float64, len(d.Users))
	for u, ts := range d.UserTexts() {
		vecs[u] = ex.ExtractAll(ts)
	}
	return BuildUDAFromVectors(d, vecs, nil)
}

// path builds 0-1-2-...-n-1 with unit weights.
func path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestAddEdgeAccumulates(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 2)
	if got := g.edgeWeight(0, 1); got != 3 {
		t.Errorf("weight = %v, want 3", got)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1", g.NumEdges())
	}
	g.AddEdge(2, 2, 5) // self loop ignored
	if g.Degree(2) != 0 {
		t.Error("self loop created adjacency")
	}
}

func TestDegreeAndNCS(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 3)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 2)
	if g.Degree(0) != 3 {
		t.Errorf("degree = %d", g.Degree(0))
	}
	if g.WeightedDegree(0) != 6 {
		t.Errorf("weighted degree = %v", g.WeightedDegree(0))
	}
	if got := g.NCS(0); !reflect.DeepEqual(got, []float64{3, 2, 1}) {
		t.Errorf("NCS = %v, want [3 2 1]", got)
	}
	if got := g.NCS(1); !reflect.DeepEqual(got, []float64{3}) {
		t.Errorf("NCS(1) = %v", got)
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(4)
	d := g.BFSDistances(0)
	if !reflect.DeepEqual(d, []int{0, 1, 2, 3}) {
		t.Errorf("BFS = %v", d)
	}
	// Disconnected node.
	g2 := NewGraph(3)
	g2.AddEdge(0, 1, 1)
	d2 := g2.BFSDistances(0)
	if d2[2] != -1 {
		t.Errorf("unreachable distance = %d, want -1", d2[2])
	}
}

func TestWeightedDistances(t *testing.T) {
	// Heavier edges are shorter: 0-1 (w=2, len 0.5), 1-2 (w=1, len 1),
	// direct 0-2 (w=0.5, len 2) => shortest 0->2 is via 1 (1.5).
	g := NewGraph(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 0.5)
	d := g.WeightedDistances(0)
	if math.Abs(d[2]-1.5) > 1e-12 {
		t.Errorf("weighted dist = %v, want 1.5", d[2])
	}
	// Unreachable => +Inf.
	g2 := NewGraph(2)
	if !math.IsInf(g2.WeightedDistances(0)[1], 1) {
		t.Error("unreachable weighted distance must be +Inf")
	}
}

func TestComponents(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	labels, n := g.Components()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] || labels[4] == labels[0] {
		t.Errorf("labels = %v", labels)
	}
}

func TestLabelPropagation(t *testing.T) {
	// Two dense triangles joined by a weak bridge.
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		g.AddEdge(e[0], e[1], 5)
	}
	g.AddEdge(2, 3, 0.1)
	labels, n := g.LabelPropagation(rand.New(rand.NewSource(1)), 50)
	if n < 2 {
		t.Errorf("communities = %d, want >= 2", n)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("triangle 1 split: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("triangle 2 split: %v", labels)
	}
}

func TestDegreeFilter(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 2, 1)
	sub, kept := g.DegreeFilter(2)
	if !reflect.DeepEqual(kept, []int{0, 1, 2}) {
		t.Fatalf("kept = %v", kept)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Errorf("sub has %d nodes, %d edges", sub.NumNodes(), sub.NumEdges())
	}
}

func TestDegreeHistogramAndCDF(t *testing.T) {
	g := path(4) // degrees 1,2,2,1
	cdf := g.DegreeCDF([]int{0, 1, 2})
	if !reflect.DeepEqual(cdf, []float64{0, 0.5, 1}) {
		t.Errorf("cdf = %v", cdf)
	}
	// The degree histogram (Fig.7) is the CDF's step heights.
	if h := []float64{cdf[0], cdf[1] - cdf[0], cdf[2] - cdf[1]}; !reflect.DeepEqual(h, []float64{0, 0.5, 0.5}) {
		t.Errorf("hist = %v", h)
	}
	if g.AverageDegree() != 1.5 {
		t.Errorf("avg degree = %v", g.AverageDegree())
	}
}

func TestTopDegreeNodes(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 2, 1)
	got := g.TopDegreeNodes(2)
	if !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("top degree = %v", got)
	}
	if got := g.TopDegreeNodes(10); len(got) != 4 {
		t.Errorf("requesting more than n returns %d", len(got))
	}
}

func TestBuildCorrelation(t *testing.T) {
	d := &corpus.Dataset{
		Name: "t",
		Users: []corpus.User{
			{ID: 0, Name: "a", TrueIdentity: -1},
			{ID: 1, Name: "b", TrueIdentity: -1},
			{ID: 2, Name: "c", TrueIdentity: -1},
		},
		Threads: []corpus.Thread{
			{ID: 0, Board: "x", Starter: 0},
			{ID: 1, Board: "x", Starter: 0},
			{ID: 2, Board: "y", Starter: 2},
		},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "p"},
			{ID: 1, User: 1, Thread: 0, Text: "p"},
			{ID: 2, User: 0, Thread: 1, Text: "p"},
			{ID: 3, User: 1, Thread: 1, Text: "p"},
			{ID: 4, User: 1, Thread: 1, Text: "second post same thread"},
			{ID: 5, User: 2, Thread: 2, Text: "p"},
		},
	}
	g := BuildCorrelation(d)
	// Users 0 and 1 co-discussed threads 0 and 1 => weight 2.
	if got := g.edgeWeight(0, 1); got != 2 {
		t.Errorf("weight(0,1) = %v, want 2 (distinct threads, not post pairs)", got)
	}
	if g.Degree(2) != 0 {
		t.Error("isolated user must have degree 0")
	}
}

func TestBuildUDA(t *testing.T) {
	d := &corpus.Dataset{
		Name: "t",
		Users: []corpus.User{
			{ID: 0, Name: "a", TrueIdentity: -1},
			{ID: 1, Name: "b", TrueIdentity: -1},
		},
		Threads: []corpus.Thread{{ID: 0, Board: "x", Starter: 0}},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "i beleive the doctor is right"},
			{ID: 1, User: 1, Thread: 0, Text: "numbers like 42 are nice"},
		},
	}
	ex := stylometry.New()
	uda := buildUDA(d, ex)
	if len(uda.Attrs) != 2 || len(uda.PostVectors) != 2 {
		t.Fatal("missing attributes or vectors")
	}
	if uda.Attrs[0].Len() == 0 || uda.Attrs[1].Len() == 0 {
		t.Error("users must have attributes")
	}
	if uda.edgeWeight(0, 1) != 1 {
		t.Error("co-thread edge missing")
	}
	// User 0 used a known misspelling; that attribute must be set for 0
	// only. The misspelling block is the last of the feature space.
	missIdx := ex.NumFeatures() - len(lexicon.MisspellingList) + lexicon.MisspellingIndex("beleive")
	if !uda.Attrs[0].Has(missIdx) {
		t.Error("misspelling attribute missing on author")
	}
	if uda.Attrs[1].Has(missIdx) {
		t.Error("misspelling attribute leaked to other user")
	}
}

// Property: BFS distances satisfy the edge relaxation property on random
// graphs (no edge can shortcut a shortest path by more than 1).
func TestBFSRelaxationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := NewGraph(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		d := g.BFSDistances(0)
		for u := 0; u < n; u++ {
			if d[u] < 0 {
				continue
			}
			for _, e := range g.neighbors(u) {
				if d[e.To] < 0 || d[e.To] > d[u]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: weighted Dijkstra distances are symmetric on undirected graphs.
func TestDijkstraSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := NewGraph(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*4)
		}
		for s := 0; s < n; s++ {
			ds := g.WeightedDistances(s)
			for v := 0; v < n; v++ {
				dv := g.WeightedDistances(v)
				if math.Abs(ds[v]-dv[s]) > 1e-9 && !(math.IsInf(ds[v], 1) && math.IsInf(dv[s], 1)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLabelPropagationDeterministic(t *testing.T) {
	g := NewGraph(30)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		g.AddEdge(rng.Intn(30), rng.Intn(30), 1+rng.Float64())
	}
	a, na := g.LabelPropagation(rand.New(rand.NewSource(7)), 50)
	b, nb := g.LabelPropagation(rand.New(rand.NewSource(7)), 50)
	if na != nb || !reflect.DeepEqual(a, b) {
		t.Error("label propagation must be deterministic for a fixed seed")
	}
}

// Property: DegreeFilter keeps exactly the nodes whose original degree
// clears the threshold, and never invents edges.
func TestDegreeFilterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := NewGraph(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		minDeg := rng.Intn(5)
		sub, kept := g.DegreeFilter(minDeg)
		keptSet := map[int]bool{}
		for _, u := range kept {
			if g.Degree(u) < minDeg {
				return false
			}
			keptSet[u] = true
		}
		for u := 0; u < n; u++ {
			if g.Degree(u) >= minDeg && !keptSet[u] {
				return false
			}
		}
		// Edge conservation: every subgraph edge exists in the original.
		for su := 0; su < sub.NumNodes(); su++ {
			for _, e := range sub.neighbors(su) {
				if g.edgeWeight(kept[su], kept[e.To]) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the sum of degrees equals twice the edge count.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		g := NewGraph(n)
		for i := 0; i < n*3; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), 1)
		}
		total := 0
		for u := 0; u < n; u++ {
			total += g.Degree(u)
		}
		return total == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFreezeThawRoundtrip(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 3, 1)
	g.AddEdge(0, 1, 2)
	g.Freeze()
	// Reading after freeze, then adding again (thaw), then reading must
	// accumulate correctly and keep adjacency sorted by neighbor id.
	if g.Degree(0) != 2 {
		t.Fatalf("degree = %d, want 2", g.Degree(0))
	}
	g.AddEdge(0, 2, 4)
	g.AddEdge(0, 3, 1)
	es := g.neighbors(0)
	want := []Edge{{To: 1, Weight: 2}, {To: 2, Weight: 4}, {To: 3, Weight: 2}}
	if !reflect.DeepEqual(es, want) {
		t.Fatalf("neighbors = %v, want %v", es, want)
	}
}

// TestDenseConstruction exercises the map-backed edge accumulator on a
// dense co-discussion clique (the case the old O(deg) linear-scan bump made
// quadratic) and checks totals.
func TestDenseConstruction(t *testing.T) {
	const n = 120
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, 1)
		}
	}
	if got, want := g.NumEdges(), n*(n-1)/2; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	for u := 0; u < n; u++ {
		if g.Degree(u) != n-1 {
			t.Fatalf("degree(%d) = %d, want %d", u, g.Degree(u), n-1)
		}
		es := g.neighbors(u)
		for i := 1; i < len(es); i++ {
			if es[i-1].To >= es[i].To {
				t.Fatalf("adjacency of %d not sorted at %d", u, i)
			}
		}
	}
}

// TestBuildUDAFromVectorsMatchesBuildUDA checks the two ways callers hand
// BuildUDAFromVectors its attribute sets agree: derived from the vectors
// (nil, the one-shot path of buildUDA) and precomputed by the caller (the
// feature store's path).
func TestBuildUDAFromVectorsMatchesBuildUDA(t *testing.T) {
	d := &corpus.Dataset{
		Name: "t",
		Users: []corpus.User{
			{ID: 0, Name: "a", TrueIdentity: -1},
			{ID: 1, Name: "b", TrueIdentity: -1},
			{ID: 2, Name: "c", TrueIdentity: -1},
		},
		Threads: []corpus.Thread{{ID: 0, Board: "x", Starter: 0}},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "i beleive the doctor is right"},
			{ID: 1, User: 1, Thread: 0, Text: "numbers like 42 are nice"},
			{ID: 2, User: 2, Thread: 0, Text: "Absolutely, AND emphatically so!"},
			{ID: 3, User: 0, Thread: 0, Text: "a second opinion helps"},
		},
	}
	ex := stylometry.New()
	ex.FitBigrams(d.Texts(), 20)
	want := buildUDA(d, ex)

	texts := d.UserTexts()
	vecs := make([][][]float64, len(d.Users))
	attrs := make([]stylometry.AttrSet, len(d.Users))
	for u, ts := range texts {
		vecs[u] = ex.ExtractAll(ts)
		attrs[u] = stylometry.UserAttributes(vecs[u])
	}
	got := BuildUDAFromVectors(d, vecs, attrs)
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edges %d != %d", got.NumEdges(), want.NumEdges())
	}
	for u := range want.Attrs {
		if !reflect.DeepEqual(got.Attrs[u].Idx, want.Attrs[u].Idx) ||
			!reflect.DeepEqual(got.Attrs[u].Weight, want.Attrs[u].Weight) {
			t.Fatalf("user %d attrs differ", u)
		}
	}
}

// TestAddNodesFrozenGrowth grows a frozen graph node by node and checks the
// spliced edges agree exactly with a from-scratch rebuild.
func TestAddNodesFrozenGrowth(t *testing.T) {
	g := path(4)
	g.Freeze()

	first := g.AddNodes(2)
	if first != 4 || g.NumNodes() != 6 {
		t.Fatalf("AddNodes returned %d, nodes %d; want 4, 6", first, g.NumNodes())
	}
	if g.Degree(4) != 0 || g.Degree(5) != 0 {
		t.Fatal("new nodes not isolated")
	}
	// Splice edges into the frozen graph, including a weight accumulation.
	g.AddEdge(4, 1, 1)
	g.AddEdge(4, 0, 1)
	g.AddEdge(4, 3, 2)
	g.AddEdge(4, 1, 1)
	g.AddEdge(5, 4, 1)

	want := NewGraph(6)
	for i := 0; i+1 < 4; i++ {
		want.AddEdge(i, i+1, 1)
	}
	want.AddEdge(4, 1, 2)
	want.AddEdge(4, 0, 1)
	want.AddEdge(4, 3, 2)
	want.AddEdge(5, 4, 1)
	for u := 0; u < 6; u++ {
		if !reflect.DeepEqual(g.neighbors(u), want.neighbors(u)) {
			t.Fatalf("node %d: adjacency %v, want %v", u, g.neighbors(u), want.neighbors(u))
		}
	}
	// The spliced edge accumulated its two weight bumps.
	if got := g.edgeWeight(4, 1); got != 2 {
		t.Fatalf("EdgeWeight(4,1) = %v, want 2", got)
	}
	if got := g.BFSDistances(5)[0]; got != 2 {
		t.Fatalf("dist(5,0) = %d, want 2", got)
	}
}

// TestUDAAppendNode checks node appends carry attrs and post vectors and
// leave prior nodes untouched.
func TestUDAAppendNode(t *testing.T) {
	d := &corpus.Dataset{
		Name:    "t",
		Users:   []corpus.User{{ID: 0, Name: "a", TrueIdentity: -1}, {ID: 1, Name: "b", TrueIdentity: -1}},
		Threads: []corpus.Thread{{ID: 0, Board: "x", Starter: 0}},
		Posts: []corpus.Post{
			{ID: 0, User: 0, Thread: 0, Text: "first post about sleep"},
			{ID: 1, User: 1, Thread: 0, Text: "second post about pain"},
		},
	}
	ex := stylometry.New()
	u := buildUDA(d, ex)
	vecs := ex.ExtractAll([]string{"a brand new user writes here"})
	attrs := stylometry.UserAttributes(vecs)
	id := u.AppendNode(attrs, vecs)
	if id != 2 || u.NumNodes() != 3 {
		t.Fatalf("AppendNode returned %d (nodes %d), want 2 (3)", id, u.NumNodes())
	}
	u.AddEdge(id, 0, 1)
	if u.Degree(id) != 1 || u.edgeWeight(id, 0) != 1 {
		t.Fatal("appended node edge missing")
	}
	if len(u.PostVectors) != 3 || len(u.Attrs) != 3 {
		t.Fatal("attrs/post vectors not extended")
	}
	if len(u.PostVectors[2]) != 1 {
		t.Fatalf("appended node has %d post vectors, want 1", len(u.PostVectors[2]))
	}
}
