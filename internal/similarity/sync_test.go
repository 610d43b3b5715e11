package similarity

import (
	"math/rand"
	"slices"
	"testing"

	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
)

// componentGraph returns an n-node graph of a few components with integer
// edge weights 1-3, the shape co-discussion counts take, and no attributes.
func componentGraph(rng *rand.Rand, n int) *graph.UDA {
	g := graph.NewGraph(n)
	comps := 1 + rng.Intn(4)
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u%comps == v%comps {
			g.AddEdge(u, v, float64(1+rng.Intn(3)))
		}
	}
	g.Freeze()
	return &graph.UDA{Graph: g}
}

// ingest appends k nodes, each with up to four edges to random earlier
// nodes (old or new, some bumped twice); every edge touches a new node, as
// SyncAnon requires.
func ingest(rng *rand.Rand, g *graph.UDA, k int) {
	for i := 0; i < k; i++ {
		u := g.AppendNode(stylometry.AttrSet{}, nil)
		for e := rng.Intn(5); e > 0; e-- {
			v := rng.Intn(u)
			g.AddEdge(u, v, float64(1+rng.Intn(3)))
			if rng.Intn(4) == 0 {
				g.AddEdge(u, v, 1)
			}
		}
	}
}

// sameCaches reports the first anonymized-side cache of got that differs
// from want by so much as a bit, or "".
func sameCaches(got, want *scorerCaches) string {
	switch {
	case !slices.Equal(got.landmarks1, want.landmarks1):
		return "landmarks"
	case !slices.Equal(got.ncs1, want.ncs1):
		return "NCS rows"
	case !slices.Equal(got.ncsOff1, want.ncsOff1):
		return "NCS offsets"
	case !slices.Equal(got.ncsNorm1, want.ncsNorm1):
		return "NCS norms"
	case !slices.Equal(got.close1, want.close1):
		return "hop closeness rows"
	case !slices.Equal(got.closeNorm1, want.closeNorm1):
		return "hop closeness norms"
	case !slices.Equal(got.wcl1, want.wcl1):
		return "weighted closeness rows"
	case !slices.Equal(got.wclNorm1, want.wclNorm1):
		return "weighted closeness norms"
	}
	for li := range want.hop1 {
		if !slices.Equal(got.hop1[li], want.hop1[li]) || !slices.Equal(got.wd1[li], want.wd1[li]) {
			return "landmark distances"
		}
	}
	return ""
}

// TestSyncAnonRepairMatchesRebuild grows random multi-component graphs by
// batches of nodes and checks, after every SyncAnon, that each cache —
// distances, closeness rows, NCS rows, offsets and norms — equals a rebuild
// with the same landmarks bit for bit. Across the runs some sync must lower
// an old node's distance and grow an old node's NCS row, so both repairs
// are exercised.
func TestSyncAnonRepairMatchesRebuild(t *testing.T) {
	var lowered, grownNCS bool
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := componentGraph(rng, 5+rng.Intn(40))
		s := &Scorer{g1: g, c: newAnonCaches(g, g.TopDegreeNodes(1+rng.Intn(6)))}
		for step := 0; step < 6; step++ {
			n0 := g.NumNodes()
			before := *s.c
			before.close1 = slices.Clone(s.c.close1)
			before.ncsOff1 = slices.Clone(s.c.ncsOff1)
			k := rng.Intn(4)
			ingest(rng, g, k)
			if added := s.SyncAnon(); added != k {
				t.Fatalf("seed %d step %d: SyncAnon added %d, want %d", seed, step, added, k)
			}
			if diff := sameCaches(s.c, newAnonCaches(g, s.c.landmarks1)); diff != "" {
				t.Fatalf("seed %d step %d: %s differ from a rebuild", seed, step, diff)
			}
			h := s.c.hbar1
			lowered = lowered || !slices.Equal(before.close1, s.c.close1[:n0*h])
			for u := 0; u < n0; u++ {
				grownNCS = grownNCS || before.ncsOff1[u+1]-before.ncsOff1[u] != s.c.ncsOff1[u+1]-s.c.ncsOff1[u]
			}
		}
	}
	if !lowered || !grownNCS {
		t.Fatalf("no sync lowered an old distance (%v) or grew an old NCS row (%v)", lowered, grownNCS)
	}
}

// TestSyncAnonRebuildsAdoptedCaches checks that a scorer restored from
// Parts leaves the adopted arrays untouched on its first sync, rebuilding
// into fresh ones instead, and repairs from then on.
func TestSyncAnonRebuildsAdoptedCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g1, g2 := twoForumWorld()
	cfg := Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2}
	p := NewScorer(g1, g2, cfg).Parts()
	adopted := slices.Clone(p.Close)
	s, err := NewScorerFromParts(g1, g2, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		ingest(rng, g1, 2)
		s.SyncAnon()
		if !s.c.owned {
			t.Fatal("caches still adopted after a sync")
		}
		if diff := sameCaches(s.c, newAnonCaches(g1, p.Landmarks)); diff != "" {
			t.Fatalf("step %d: %s differ from a rebuild", step, diff)
		}
	}
	if !slices.Equal(p.Close, adopted) {
		t.Fatal("SyncAnon wrote into the adopted closeness array")
	}
}
