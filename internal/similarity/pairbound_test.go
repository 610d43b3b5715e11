package similarity

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
)

// randomAttrs draws per ids from [0, dim) with weights in [1, maxW]; with
// twins it adds ids 7 and 7+512, a pair any bitset folded modulo 512 (or a
// divisor of it) maps to one bit.
func randomAttrs(rng *rand.Rand, dim, per, maxW int, twins bool) stylometry.AttrSet {
	picked := map[int]bool{}
	for i := 0; i < per; i++ {
		picked[rng.Intn(dim)] = true
	}
	if twins {
		picked[7], picked[7+512] = true, true
	}
	var a stylometry.AttrSet
	for id := range picked {
		a.Idx = append(a.Idx, id)
	}
	sort.Ints(a.Idx)
	for range a.Idx {
		a.Weight = append(a.Weight, 1+rng.Intn(maxW))
	}
	return a
}

// randomUDA builds an n-user UDA with randomAttrs sets and about edges
// random weighted edges per user; with edges 0 every user is isolated, so
// every NCS and closeness vector is all-zero.
func randomUDA(rng *rand.Rand, n, dim, per, maxW, edges int, twins bool) *graph.UDA {
	g := &graph.UDA{Graph: graph.NewGraph(n)}
	for u := 0; u < n; u++ {
		g.Attrs = append(g.Attrs, randomAttrs(rng, dim, per, maxW, twins))
		g.PostVectors = append(g.PostVectors, [][]float64{{1}})
		for e := 0; e < edges && n > 1; e++ {
			if v := rng.Intn(n); v != u {
				g.AddEdge(u, v, 1+float64(rng.Intn(4)))
			}
		}
	}
	return g
}

// FuzzPairBound is the admissibility property the threshold-aware scan
// rests on, checked through the production kernel. Under +Inf floors
// ScoreRangeAbove answers every pair it is able to bound with the bound
// itself, so one call reads the bound of every (query, row) pair, and each
// must be >= the naive reference score. Under finite floors every answer
// must be either the exact score or a bound lying between the exact score
// and the floor. The worlds cover what the bound's terms depend on: random
// attribute sets, weights and degrees, isolated users (all-zero vectors),
// query attribute ids at or beyond the auxiliary id space, query users
// appended after SyncAnon, id spaces too wide for bitsets (every answer
// exact), a negative weight (PruneSafe off, every answer exact), and ids
// that collide modulo 512 — the bitset has to be one bit per id: a folded
// one undercounts |A∩B| on collisions and, with unit weights and isolated
// users leaving the bound no slack, falls below the score.
func FuzzPairBound(f *testing.F) {
	f.Add(int64(1), uint8(30), uint16(200), uint8(40), uint8(3), uint8(2), uint8(0))
	f.Add(int64(2), uint8(17), uint16(1014), uint8(190), uint8(9), uint8(3), uint8(1)) // the dense forum's shape
	f.Add(int64(3), uint8(25), uint16(1100), uint8(60), uint8(0), uint8(0), uint8(0))  // twins, unit weights, isolated: no slack
	f.Add(int64(4), uint8(40), uint16(5000), uint8(8), uint8(3), uint8(2), uint8(0))   // wide id space: no bitsets
	f.Add(int64(5), uint8(12), uint16(64), uint8(20), uint8(200), uint8(1), uint8(2))  // one word, heavy weights, C1 < 0
	f.Add(int64(6), uint8(1), uint16(1), uint8(1), uint8(1), uint8(0), uint8(3))
	f.Add(int64(7), uint8(33), uint16(700), uint8(0), uint8(0), uint8(1), uint8(3)) // twins only
	f.Fuzz(func(t *testing.T, seed int64, n2b uint8, dimb uint16, perb, maxWb, edgesb, cfgb uint8) {
		rng := rand.New(rand.NewSource(seed))
		n1, n2 := 5, int(n2b)%48+1
		dim := int(dimb)%6000 + 1
		per, maxW, edges := int(perb), int(maxWb)%250+1, int(edgesb)%4
		twins := dim > 7+512
		cfg := []Config{
			{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4},
			{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 2},
			{C1: -0.1, C2: 0.5, C3: 0.6, Landmarks: 3},
			{C3: 1, Landmarks: 1},
		}[cfgb%4]
		// The anonymized side draws from a wider id space than the auxiliary
		// side, so some query ids fall at or beyond attrW.
		g1 := randomUDA(rng, n1, dim+70, per, maxW, edges, twins)
		g2 := randomUDA(rng, n2, dim, per, maxW, edges, twins)
		s := NewScorer(g1, g2, cfg)
		for i := 0; i < 2; i++ {
			u := g1.AppendNode(randomAttrs(rng, dim+70, per, maxW, twins), [][]float64{{1}})
			for e := 0; e < edges; e++ {
				g1.AddEdge(u, rng.Intn(n1), 1+float64(rng.Intn(4)))
			}
		}
		if added := s.SyncAnon(); added != 2 {
			t.Fatalf("SyncAnon added %d, want 2", added)
		}
		n1 += 2

		total := 0
		for _, a := range g2.Attrs {
			total += a.Len()
		}
		wantW := (s.ax.attrW + 63) / 64 // one bit per id of the auxiliary id space
		if wantW*n2 > total {
			wantW = 0 // bitsets longer than the lists they summarize are not built
		}
		if s.ax.bitW != wantW || len(s.ax.attrBits) != wantW*n2 {
			t.Fatalf("bitsets of %d words x %d users (%d words in all) over an id space of %d with %d attributes; want %d words each",
				s.ax.bitW, n2, len(s.ax.attrBits), s.ax.attrW, total, wantW)
		}
		filtering := wantW > 0 && s.PruneSafe()

		users := make([]int, n1)
		exact, bounds, mixed := make([][]float64, n1), make([][]float64, n1), make([][]float64, n1)
		inf, floors := make([]float64, n1), make([]float64, n1)
		for u := range users {
			users[u] = u
			exact[u], bounds[u], mixed[u] = make([]float64, n2), make([]float64, n2), make([]float64, n2)
			for v := range exact[u] {
				exact[u][v] = s.ScoreSlow(u, v)
			}
			inf[u] = math.Inf(1)
			floors[u] = exact[u][rng.Intn(n2)]
		}
		var b BatchProfile
		s.PrepareBatch(users, &b)
		skipped := s.ScoreRangeAbove(&b, 0, n2, inf, bounds)
		if (filtering && skipped != n1*n2) || (!filtering && skipped != 0) {
			t.Fatalf("+Inf floors skipped %d of %d pairs (filtering %v)", skipped, n1*n2, filtering)
		}
		skipped = s.ScoreRangeAbove(&b, 0, n2, floors, mixed)
		for u := range users {
			for v := 0; v < n2; v++ {
				if bounds[u][v] < exact[u][v] || (!filtering && bounds[u][v] != exact[u][v]) {
					t.Fatalf("cfg %+v pair (%d,%d): bound %v, ScoreSlow %v (filtering %v)", cfg, u, v, bounds[u][v], exact[u][v], filtering)
				}
				got := mixed[u][v]
				if got == exact[u][v] {
					continue
				}
				skipped--
				if !(exact[u][v] <= got && got < floors[u]) {
					t.Fatalf("cfg %+v pair (%d,%d): answered %v for score %v under floor %v", cfg, u, v, got, exact[u][v], floors[u])
				}
			}
		}
		// The safety margin makes every bound strictly greater than its score,
		// so the answers that differ from ScoreSlow are exactly the skipped ones.
		if skipped != 0 {
			t.Fatalf("skip count off by %d from the answers that differ from ScoreSlow (filtering %v)", skipped, filtering)
		}
	})
}

// TestAttrBitsetsFollowDensity pins the rule that decides whether a window
// carries presence bitsets, on the two regimes the benchmark serves: the
// community-pooled sparse world (8 attributes over a wide id space) must
// not, a dense one (lists longer than their bitset) must, and a shard
// window must view exactly its rows of the base scorer's.
func TestAttrBitsetsFollowDensity(t *testing.T) {
	cfg := Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4}
	sparse := NewScorer(synth.SparseAttrUDA(20, 5, 16384, 1), synth.SparseAttrUDA(1500, 5, 16384, 2), cfg)
	if sparse.ax.bitW != 0 || sparse.ax.attrBits != nil {
		t.Fatalf("sparse world built %d-word bitsets over an id space of %d", sparse.ax.bitW, sparse.ax.attrW)
	}
	rng := rand.New(rand.NewSource(3))
	g1, g2 := randomUDA(rng, 10, 1014, 190, 9, 2, false), randomUDA(rng, 30, 1014, 190, 9, 2, false)
	dense := NewScorer(g1, g2, cfg)
	if want := (dense.ax.attrW + 63) / 64; dense.ax.bitW != want || want == 0 {
		t.Fatalf("dense world has %d-word bitsets over an id space of %d, want %d", dense.ax.bitW, dense.ax.attrW, want)
	}
	for v, a := range g2.Attrs {
		bits := dense.ax.attrBits[v*dense.ax.bitW : (v+1)*dense.ax.bitW]
		if n := andCount(bits, bits); n != a.Len() {
			t.Fatalf("user %d: %d bits set for %d attributes", v, n, a.Len())
		}
		for _, id := range a.Idx {
			if bits[id>>6]&(1<<(uint(id)&63)) == 0 {
				t.Fatalf("user %d: attribute %d missing from the bitset", v, id)
			}
		}
	}
	lo, hi := 7, 19
	win := dense.Shard(lo, hi)
	if win.ax.bitW != dense.ax.bitW || len(win.ax.attrBits) != (hi-lo)*dense.ax.bitW || &win.ax.attrBits[0] != &dense.ax.attrBits[lo*dense.ax.bitW] {
		t.Fatalf("window bitsets are not rows [%d, %d) of the base scorer's", lo, hi)
	}
}

// TestAttrSimBoundNeedsExactIntersection is the negative case behind the
// one-bit-per-id layout: with unit weights attrSimBound at the true |A∩B|
// equals the attribute similarity (no slack), so an intersection count one
// short — what a folded bitset reports when two shared ids collide — gives
// a value below it, which is no bound at all.
func TestAttrSimBoundNeedsExactIntersection(t *testing.T) {
	a := stylometry.AttrSet{Idx: []int{3, 7, 7 + 512, 900}, Weight: []int{1, 1, 1, 1}}
	b := stylometry.AttrSet{Idx: []int{7, 7 + 512, 40}, Weight: []int{1, 1, 1}}
	sim := attrSimFused(a, a.TotalWeight(), b, b.TotalWeight())
	if got := attrSimBound(2, a.Len(), b.Len(), a.TotalWeight(), b.TotalWeight()); got != sim {
		t.Fatalf("attrSimBound at the true intersection = %v, attrSim %v", got, sim)
	}
	if got := attrSimBound(1, a.Len(), b.Len(), a.TotalWeight(), b.TotalWeight()); got >= sim {
		t.Fatalf("attrSimBound at an undercounted intersection = %v, not below attrSim %v", got, sim)
	}
}
