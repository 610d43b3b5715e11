package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/index"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// TestApproxDegenerateParitySparse is the tier's exactness guarantee: at
// the conservative knobs (zero ApproxParams resolve to Theta 1, unbounded
// budget) the WAND walk's skips are provably safe, so the approximate
// path must return bit-identical top-K to the exact full scan — at every
// shard count and K — while the stats show the walk actually ran.
func TestApproxDegenerateParitySparse(t *testing.T) {
	g1, g2 := sparseWorld(t, 120, 12, 400, 51)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
	full := New(base, g2, nil, 1)

	for _, shards := range []int{1, 3, 8} {
		st := &index.ApproxStats{}
		ap := New(base, g2, nil, shards).WithApprox(index.Config{}, st)
		for _, k := range []int{1, 5, 17} {
			for u := 0; u < g1.NumNodes(); u++ {
				candidatesEqual(t, ap.QueryUserApprox(u, k, index.ApproxParams{}), full.QueryUser(u, k),
					"sparse approx degenerate parity")
			}
		}
		s := st.Snapshot()
		if s.Queries == 0 || s.CursorsOpened == 0 {
			t.Fatalf("approx tier did not run: %+v", s)
		}
		if s.Fallbacks != 0 {
			t.Fatalf("indexed prune-safe world must not fall back: %+v", s)
		}
		if s.BudgetExhausted != 0 {
			t.Fatalf("unbounded budget cannot exhaust: %+v", s)
		}
	}
}

// denseTextWorld builds the real-text world of TestPrunedParityDense:
// dense stylometric attribute overlap plus a few zero-attribute lurkers.
func denseTextWorld(t *testing.T) (base *similarity.Scorer, auxS *features.Store, anonN int) {
	t.Helper()
	u := synth.NewUniverse(24, 61)
	rng := rand.New(rand.NewSource(62))
	members := synth.Members(u, 24, rng)
	cfg := synth.WebMDLike(24, 63)
	cfg.FixedPosts = 6
	d := synth.Generate(cfg, u, members)
	split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(64)))
	for i := 0; i < 4; i++ {
		id := len(split.Aux.Users)
		tid := len(split.Aux.Threads)
		split.Aux.Users = append(split.Aux.Users, corpus.User{ID: id, Name: fmt.Sprintf("lurker%d", i), TrueIdentity: -1})
		split.Aux.Threads = append(split.Aux.Threads, corpus.Thread{ID: tid, Board: "b", Starter: id})
		split.Aux.Posts = append(split.Aux.Posts, corpus.Post{ID: len(split.Aux.Posts), User: id, Thread: tid, Text: ""})
	}
	anonS, aux := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	sc := similarity.NewScorer(anonS.UDA(), aux.UDA(), similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
	return sc, aux, anonS.UDA().NumNodes()
}

// TestApproxDegenerateParityDense drives the degenerate-knob exactness
// guarantee over a dense real-text world — the regime the tier exists
// for, where every attribute posting list is long.
func TestApproxDegenerateParityDense(t *testing.T) {
	base, auxS, anonN := denseTextWorld(t)
	full := New(base, auxS.UDA(), auxS, 1)
	st := &index.ApproxStats{}
	ap := New(base, auxS.UDA(), auxS, 3).WithApprox(index.Config{}, st)
	for u := 0; u < anonN; u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 5, index.ApproxParams{}), full.QueryUser(u, 5),
			"dense approx degenerate parity")
	}
	if s := st.Snapshot(); s.Queries == 0 || s.Fallbacks != 0 {
		t.Fatalf("dense approx queries must run the WAND engine: %+v", s)
	}
}

// TestApproxThetaRecallDense turns the Theta knob on the dense world and
// checks the approximation contract: candidates may be missed, but every
// returned candidate carries its exact score (rescore is exact), results
// stay sorted, the walk skips postings, and recall@5 against the exact
// top-5 stays usable.
func TestApproxThetaRecallDense(t *testing.T) {
	base, auxS, anonN := denseTextWorld(t)
	full := New(base, auxS.UDA(), auxS, 1)
	st := &index.ApproxStats{}
	ap := New(base, auxS.UDA(), auxS, 2).WithApprox(index.Config{}, st)

	params := index.ApproxParams{Theta: 1.2}
	hits, want := 0, 0
	for u := 0; u < anonN; u++ {
		exact := full.QueryUser(u, 5)
		got := ap.QueryUserApprox(u, 5, params)
		exactScore := map[int]float64{}
		for _, c := range full.QueryUser(u, auxS.UDA().NumNodes()) {
			exactScore[c.User] = c.Score
		}
		for i, c := range got {
			if s, ok := exactScore[c.User]; !ok || s != c.Score {
				t.Fatalf("user %d candidate %d: approximate score %v != exact %v", u, i, c.Score, s)
			}
			if i > 0 && !better(got[i-1], c) {
				t.Fatalf("user %d: approximate candidates out of order at %d", u, i)
			}
		}
		inGot := map[int]bool{}
		for _, c := range got {
			inGot[c.User] = true
		}
		for _, c := range exact {
			want++
			if inGot[c.User] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(want); recall < 0.8 {
		t.Fatalf("recall@5 at Theta 1.2 = %v, below the floor", recall)
	}
	if s := st.Snapshot(); s.PostingsSkipped == 0 {
		t.Fatalf("aggressive Theta skipped no postings: %+v", s)
	}
}

// TestApproxBudget pins the budget semantics: a tiny budget caps the
// exact rescores per shard query, marks the exhaustion, and still returns
// a sorted prefix of exact-scored candidates.
func TestApproxBudget(t *testing.T) {
	g1, g2 := sparseWorld(t, 100, 10, 300, 57)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	st := &index.ApproxStats{}
	ap := New(base, g2, nil, 1).WithApprox(index.Config{}, st)

	const budget = 3
	exactScore := map[int]float64{}
	for _, c := range full.QueryUser(0, g2.NumNodes()) {
		exactScore[c.User] = c.Score
	}
	got := ap.QueryUserApprox(0, 10, index.ApproxParams{Budget: budget})
	if len(got) > budget {
		t.Fatalf("budget %d query rescored %d candidates", budget, len(got))
	}
	for i, c := range got {
		if exactScore[c.User] != c.Score {
			t.Fatalf("candidate %d: score %v != exact %v", i, c.Score, exactScore[c.User])
		}
		if i > 0 && !better(got[i-1], c) {
			t.Fatalf("budgeted candidates out of order at %d", i)
		}
	}
	s := st.Snapshot()
	if s.Rescored > budget {
		t.Fatalf("rescored %d candidates with budget %d", s.Rescored, budget)
	}
	if s.BudgetExhausted == 0 {
		t.Fatalf("a budget of %d over %d users must exhaust: %+v", budget, g2.NumNodes(), s)
	}
}

// TestApproxUnsafeConfigFallsBack pins the negative-weight guard: a
// configuration without admissible bounds must answer exactly via the
// fallback path.
func TestApproxUnsafeConfigFallsBack(t *testing.T) {
	g1, g2 := sparseWorld(t, 60, 10, 300, 59)
	cfg := similarity.Config{C1: -0.2, C2: 0.6, C3: 0.6, Landmarks: 4}
	base := similarity.NewScorer(g1, g2, cfg)
	full := New(base, g2, nil, 1)
	st := &index.ApproxStats{}
	ap := New(base, g2, nil, 2).WithApprox(index.Config{}, st)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 5, index.ApproxParams{Theta: 2}), full.QueryUser(u, 5),
			"unsafe config approx parity")
	}
	if s := st.Snapshot(); s.Fallbacks != s.Queries {
		t.Fatalf("unsafe config must always fall back: %+v", s)
	}
}

// TestApproxWithoutTierDegrades pins graceful degradation: approximate
// queries against a world never given the tier answer exactly.
func TestApproxWithoutTierDegrades(t *testing.T) {
	g1, g2 := sparseWorld(t, 50, 8, 250, 67)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	w := New(base, g2, nil, 2)
	for u := 0; u < 10; u++ {
		candidatesEqual(t, w.QueryUserApprox(u, 5, index.ApproxParams{Theta: 3, Budget: 1}),
			w.QueryUser(u, 5), "tier-less approx degradation")
	}
	if s := w.ApproxStats(); s != (index.ApproxStats{}) {
		t.Fatalf("tier-less world accumulated approx stats: %+v", s)
	}
}

// TestApproxBatchParity pins the batch fan-out at degenerate knobs.
func TestApproxBatchParity(t *testing.T) {
	g1, g2 := sparseWorld(t, 80, 10, 300, 71)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	ap := New(base, g2, nil, 4).WithApprox(index.Config{}, nil)
	users := make([]int, g1.NumNodes())
	for i := range users {
		users[i] = i
	}
	got := ap.QueryBatchApprox(users, 6, 3, index.ApproxParams{})
	for i, u := range users {
		candidatesEqual(t, got[i], full.QueryUser(u, 6), "approx batch parity")
	}
}

// TestApproxStateCarriesThroughDerivations checks every world derivation
// keeps the tier: re-weighting (WithScorer), adding pruning on top, and
// WithApprox over an already-pruned world reusing its indexes — all
// sharing one stats block, read back through ApproxStats.
func TestApproxStateCarriesThroughDerivations(t *testing.T) {
	g1, g2 := sparseWorld(t, 90, 10, 300, 73)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4}
	base := similarity.NewScorer(g1, g2, cfg)
	st := &index.ApproxStats{}
	ap := New(base, g2, nil, 3).WithApprox(index.Config{}, st)

	re := base.Reweighted(similarity.Config{C1: 0.2, C2: 0.2, C3: 0.6, Landmarks: 4})
	derived := ap.WithScorer(re)
	full := New(re, g2, nil, 1)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, derived.QueryUserApprox(u, 5, index.ApproxParams{}), full.QueryUser(u, 5),
			"reweighted approx parity")
	}
	// A tier-less world answers approximate queries exactly without
	// counting them, so queries counted prove WithScorer kept the tier, and
	// the parent reading the same counts proves the block is shared.
	s := derived.ApproxStats()
	if s.Queries == 0 {
		t.Fatal("WithScorer dropped the approx tier: no queries counted")
	}
	if ap.ApproxStats() != s {
		t.Fatal("derived world must share the stats block")
	}

	pruned := ap.WithPruning(index.Config{}, nil)
	if !pruned.Pruned() {
		t.Fatal("WithPruning did not prune")
	}
	pruned.QueryUserApprox(0, 5, index.ApproxParams{})
	if got := ap.ApproxStats().Queries; got <= s.Queries {
		t.Fatalf("WithPruning dropped the approx tier or its counters: %d queries counted before, %d after", s.Queries, got)
	}

	// The reverse composition reuses the pruning indexes: same pointers.
	prunedFirst := New(base, g2, nil, 3).WithPruning(index.Config{}, nil)
	both := prunedFirst.WithApprox(index.Config{}, nil)
	for i, sh := range both.Shards() {
		if sh.Index == nil || sh.Index != prunedFirst.Shards()[i].Index {
			t.Fatal("WithApprox over a pruned world must reuse the shard indexes")
		}
	}
}

// TestApproxRandomizedDegenerateParity sweeps randomized world shapes —
// sparse tiny communities, dense heavy overlap, skewed few-attribute
// worlds — through the theta-1/unbounded bit-identity contract, and
// checks the block-max tier actually engaged while preserving it.
func TestApproxRandomizedDegenerateParity(t *testing.T) {
	shapes := []struct {
		name         string
		n, comm, dim int
	}{
		{"sparse", 40, 4, 150},
		{"dense", 150, 25, 500},
		{"skewed", 120, 3, 80},
	}
	for si, shape := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			g1, g2 := sparseWorld(t, shape.n, shape.comm, shape.dim, 83+int64(si)*10+seed)
			base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
			full := New(base, g2, nil, 1)
			st := &index.ApproxStats{}
			ap := New(base, g2, nil, 2).WithApprox(index.Config{}, st)
			for u := 0; u < g1.NumNodes(); u++ {
				candidatesEqual(t, ap.QueryUserApprox(u, 7, index.ApproxParams{}), full.QueryUser(u, 7),
					shape.name+" randomized degenerate parity")
			}
			if s := st.Snapshot(); s.BlocksChecked == 0 {
				t.Fatalf("%s seed %d: block-max tier never engaged: %+v", shape.name, seed, s)
			}
		}
	}
}

// TestApproxBudgetDeterministic pins the bound-ordered budget pool's
// determinism and its exactness guarantee: repeated runs return identical
// candidates, and a budget covering the whole population changes nothing
// — the pool holds every survivor, the final rescore is exact, and no
// exhaustion is flagged.
func TestApproxBudgetDeterministic(t *testing.T) {
	g1, g2 := sparseWorld(t, 90, 9, 300, 97)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	st := &index.ApproxStats{}
	ap := New(base, g2, nil, 2).WithApprox(index.Config{}, st)

	for _, budget := range []int{1, 5, 20} {
		p := index.ApproxParams{Theta: 1.3, Budget: budget}
		first := ap.QueryUserApprox(3, 10, p)
		for rep := 0; rep < 5; rep++ {
			candidatesEqual(t, ap.QueryUserApprox(3, 10, p), first, "budget determinism")
		}
	}

	ample := index.ApproxParams{Budget: g2.NumNodes() + 1}
	pre := st.Snapshot().BudgetExhausted
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, ap.QueryUserApprox(u, 8, ample), full.QueryUser(u, 8), "ample budget parity")
	}
	if s := st.Snapshot(); s.BudgetExhausted != pre {
		t.Fatalf("budget covering the population must not exhaust: %+v", s)
	}
}

// TestApproxDegenerateK mirrors the exact TopK clamps.
func TestApproxDegenerateK(t *testing.T) {
	g1, g2 := sparseWorld(t, 30, 6, 200, 79)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 3})
	ap := New(base, g2, nil, 2).WithApprox(index.Config{}, nil)
	full := New(base, g2, nil, 1)
	if got := ap.QueryUserApprox(0, g2.NumNodes()+50, index.ApproxParams{}); len(got) != g2.NumNodes() {
		t.Fatalf("k beyond population returned %d candidates, want %d", len(got), g2.NumNodes())
	}
	candidatesEqual(t, ap.QueryUserApprox(0, g2.NumNodes()+50, index.ApproxParams{}),
		full.QueryUser(0, g2.NumNodes()+50), "k clamp approx parity")
}
