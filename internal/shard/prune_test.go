package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// sparseWorld builds matched anonymized/auxiliary UDA graphs whose
// attribute sets are synthetic and sparse (community-pooled; see
// synth.SparseAttrUDA), so attribute-overlap candidate sets are a small
// fraction of the population — the regime the inverted index targets.
func sparseWorld(t *testing.T, n, comm, dim int, seed int64) (g1, g2 *graph.UDA) {
	t.Helper()
	return synth.SparseAttrUDA(n, comm, dim, seed), synth.SparseAttrUDA(n, comm, dim, seed+1000)
}

// pruned reports whether the world's queries run through the pruner.
func (w *World) pruned() bool { return w.prune != nil }

// pruneStats snapshots the world's shared pruning counters (zero for an
// unpruned world).
func (w *World) pruneStats() index.Stats {
	if w.pstats == nil {
		return index.Stats{}
	}
	return w.pstats.Snapshot()
}

func candidatesEqual(t *testing.T, got, want []Candidate, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: candidate %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestPrunedParitySparse is the tentpole guarantee on the synthetic
// worlds: the pruned path must return bit-identical top-K to the unsharded
// full scan at every shard count and K. On the favorable sparse-overlap
// world it must also actually skip work (the stats must show skipped
// users); on the single-community world every query's candidate set is
// essentially the window and no band skip certifies — the pruner's worst
// case, where only parity is owed.
func TestPrunedParitySparse(t *testing.T) {
	for _, world := range []struct {
		name      string
		community int
		wantSkips bool
	}{
		{"sparse", 12, true},
		{"single-community", 120, false},
	} {
		g1, g2 := sparseWorld(t, 120, world.community, 400, 7)
		base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
		full := New(base, g2, nil, 1)

		for _, shards := range []int{1, 3, 8} {
			st := &index.Stats{}
			pruned := New(base, g2, nil, shards).WithPruning(index.Config{}, st)
			if !pruned.pruned() {
				t.Fatal("WithPruning world must report Pruned")
			}
			for _, k := range []int{1, 5, 17} {
				for u := 0; u < g1.NumNodes(); u++ {
					candidatesEqual(t, pruned.QueryBatch([]int{u}, k, 0)[0], full.QueryBatch([]int{u}, k, 0)[0],
						world.name+" pruned parity")
				}
			}
			s := pruned.pruneStats()
			if s.Queries == 0 {
				t.Fatalf("%s: pruned queries not counted", world.name)
			}
			if world.wantSkips && s.Skipped == 0 {
				t.Fatalf("%s world skipped no users: %+v", world.name, s)
			}
		}
	}
}

// denseTextWorld builds a real-text world whose stylometric attribute
// overlap is dense (most queries' candidates exceed MaxCandidateFrac), plus
// four "lurker" auxiliary accounts whose single empty post carries no
// stylometric attributes. seed through seed+3 drive the generator.
func denseTextWorld(t *testing.T, seed int64) (base *similarity.Scorer, auxS *features.Store, anonN int) {
	t.Helper()
	u := synth.NewUniverse(24, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, 24, rng)
	cfg := synth.WebMDLike(24, seed+2)
	cfg.FixedPosts = 6
	d := synth.Generate(cfg, u, members)
	split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
	for i := 0; i < 4; i++ {
		id := len(split.Aux.Users)
		tid := len(split.Aux.Threads)
		split.Aux.Users = append(split.Aux.Users, corpus.User{ID: id, Name: fmt.Sprintf("lurker%d", i), TrueIdentity: -1})
		split.Aux.Threads = append(split.Aux.Threads, corpus.Thread{ID: tid, Board: "b", Starter: id})
		split.Aux.Posts = append(split.Aux.Posts, corpus.Post{ID: len(split.Aux.Posts), User: id, Thread: tid, Text: ""})
	}
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	base = similarity.NewScorer(anonS.UDA(), auxS.UDA(), similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
	return base, auxS, anonS.UDA().NumNodes()
}

// TestPrunedParityDense drives the pruned engine at its default
// configuration over the dense text world: dense queries go to the scan,
// and parity with the unsharded full scan must hold throughout.
func TestPrunedParityDense(t *testing.T) {
	base, auxS, anonN := denseTextWorld(t, 31)
	full := New(base, auxS.UDA(), auxS, 1)
	pruned := New(base, auxS.UDA(), auxS, 3).WithPruning(index.Config{}, nil)
	for u := 0; u < anonN; u++ {
		candidatesEqual(t, pruned.QueryBatch([]int{u}, 5, 0)[0], full.QueryBatch([]int{u}, 5, 0)[0], "dense pruned parity")
	}
	s := pruned.pruneStats()
	if s.Queries == 0 {
		t.Fatal("pruned queries not counted")
	}
	if s.DenseQueries == 0 {
		t.Fatalf("dense stylometric world should classify queries as dense: %+v", s)
	}
	if s.Fallbacks != 0 {
		t.Fatalf("a prune-safe indexed world must not fall back: %+v", s)
	}
}

// TestPrunedBandedDense keeps the pruner on its own path over the dense
// text world (MaxCandidateFrac 1 never hands off): the candidate set is
// rescored, and the zero-overlap lurkers' bands — whose norm ranges prove
// their NCS and closeness vectors all-zero — are skipped under the
// tightened band bound. Parity with the full scan must hold throughout.
func TestPrunedBandedDense(t *testing.T) {
	base, auxS, anonN := denseTextWorld(t, 31)
	full := New(base, auxS.UDA(), auxS, 1)
	pruned := New(base, auxS.UDA(), auxS, 3).WithPruning(index.Config{MaxCandidateFrac: 1}, nil)
	for u := 0; u < anonN; u++ {
		candidatesEqual(t, pruned.QueryBatch([]int{u}, 5, 0)[0], full.QueryBatch([]int{u}, 5, 0)[0], "dense banded parity")
	}
	s := pruned.pruneStats()
	if s.Queries == 0 || s.DenseQueries != 0 || s.Fallbacks != 0 {
		t.Fatalf("MaxCandidateFrac 1 must keep every query on the banded engine: %+v", s)
	}
	if s.Skipped == 0 {
		t.Fatalf("zero-attribute lurkers should be skipped under the norm-tightened band bound: %+v", s)
	}
}

// TestDenseHandOffParity pins the pruner's hand-off to the scan on a
// world where every query is dense, at 1, 2 and 3 shards, at workers 1
// (every shard inline, in index order) and 0 (helper goroutines from the
// world's scan tokens), and with k from 1 to beyond the world — including
// k just above the smallest shard, where a shard clamped to its size sits
// beside shards that publish to the query's shared floor. The hand-off
// must pass the scan the caller's k: a shard scanning under the clamped k
// would publish its last-place score as the floor and starve its siblings.
func TestDenseHandOffParity(t *testing.T) {
	anonS, auxS, base := testStores(t, 640, 2, 47)
	anonN, auxN := anonS.UDA().NumNodes(), auxS.UDA().NumNodes()
	full := New(base, auxS.UDA(), auxS, 1)
	var users []int
	for u := 0; u < anonN; u += 5 {
		users = append(users, u)
	}
	for _, shards := range []int{1, 2, 3} {
		pruned := New(base, auxS.UDA(), auxS, shards).WithPruning(index.Config{}, nil)
		smallest := auxN
		for _, sh := range pruned.Shards() {
			smallest = min(smallest, sh.NumUsers())
		}
		for _, k := range []int{1, 10, smallest + 1, auxN + 5} {
			for _, workers := range []int{1, 0} {
				for _, u := range users {
					candidatesEqual(t, pruned.QueryBatch([]int{u}, k, workers)[0], full.QueryBatch([]int{u}, k, 0)[0],
						fmt.Sprintf("shards=%d k=%d workers=%d u=%d hand-off parity", shards, k, workers, u))
				}
			}
		}
		s := pruned.pruneStats()
		if s.Queries == 0 || s.DenseQueries != s.Queries || s.Scanned != 0 {
			t.Fatalf("shards=%d: every query must be handed to the scan: %+v", shards, s)
		}
	}
}

// TestPrunedQueryBatch pins batch parity through the pruned engine.
func TestPrunedQueryBatch(t *testing.T) {
	g1, g2 := sparseWorld(t, 80, 10, 300, 13)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	full := New(base, g2, nil, 1)
	pruned := New(base, g2, nil, 4).WithPruning(index.Config{}, nil)
	users := make([]int, g1.NumNodes())
	for i := range users {
		users[i] = i
	}
	got := pruned.QueryBatch(users, 6, 3)
	for i, u := range users {
		candidatesEqual(t, got[i], full.QueryBatch([]int{u}, 6, 0)[0], "pruned batch parity")
	}
}

// TestPrunedUnsafeConfigFallsBack pins the negative-weight guard end to
// end: a configuration that is not prune-safe must still return exact
// results, via fallback.
func TestPrunedUnsafeConfigFallsBack(t *testing.T) {
	g1, g2 := sparseWorld(t, 60, 10, 300, 17)
	cfg := similarity.Config{C1: -0.2, C2: 0.6, C3: 0.6, Landmarks: 4}
	base := similarity.NewScorer(g1, g2, cfg)
	full := New(base, g2, nil, 1)
	st := &index.Stats{}
	pruned := New(base, g2, nil, 2).WithPruning(index.Config{}, st)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, pruned.QueryBatch([]int{u}, 5, 0)[0], full.QueryBatch([]int{u}, 5, 0)[0], "unsafe config parity")
	}
	s := pruned.pruneStats()
	if s.Fallbacks != s.Queries {
		t.Fatalf("unsafe config must always fall back: %+v", s)
	}
}

// TestWithScorerKeepsPruning re-weights a pruned world and checks the
// derived world still prunes, reuses the indexes, accumulates into the
// same stats, and stays bit-identical to a fresh unpruned world at the
// new weights.
func TestWithScorerKeepsPruning(t *testing.T) {
	g1, g2 := sparseWorld(t, 90, 10, 300, 23)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4}
	base := similarity.NewScorer(g1, g2, cfg)
	st := &index.Stats{}
	pruned := New(base, g2, nil, 3).WithPruning(index.Config{}, st)

	re := base.Reweighted(similarity.Config{C1: 0.2, C2: 0.2, C3: 0.6, Landmarks: 4})
	derived := pruned.WithScorer(re)
	if !derived.pruned() {
		t.Fatal("WithScorer dropped pruning")
	}
	for i, sh := range derived.Shards() {
		if sh.Index == nil || sh.Index != pruned.Shards()[i].Index {
			t.Fatal("WithScorer must reuse the shard indexes")
		}
	}
	full := New(re, g2, nil, 1)
	for u := 0; u < g1.NumNodes(); u++ {
		candidatesEqual(t, derived.QueryBatch([]int{u}, 5, 0)[0], full.QueryBatch([]int{u}, 5, 0)[0], "reweighted pruned parity")
	}
	if derived.pruneStats().Queries != pruned.pruneStats().Queries {
		t.Fatal("derived world must share the stats block")
	}
}

// TestPrunedDegenerateK mirrors the unpruned TopK clamps.
func TestPrunedDegenerateK(t *testing.T) {
	g1, g2 := sparseWorld(t, 30, 6, 200, 29)
	base := similarity.NewScorer(g1, g2, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 3})
	pruned := New(base, g2, nil, 2).WithPruning(index.Config{}, nil)
	full := New(base, g2, nil, 1)
	if got := pruned.QueryBatch([]int{0}, g2.NumNodes()+50, 0)[0]; len(got) != g2.NumNodes() {
		t.Fatalf("k beyond population returned %d candidates, want %d", len(got), g2.NumNodes())
	}
	candidatesEqual(t, pruned.QueryBatch([]int{0}, g2.NumNodes()+50, 0)[0], full.QueryBatch([]int{0}, g2.NumNodes()+50, 0)[0], "k clamp parity")
}

// TestTextWorldsAreDense pins the traffic the public layer's lack of
// candidate pruning relies on: on synthetic WebMD-like and
// HealthBoards-like text worlds, every anonymized user's attribute-overlap
// candidates cover more than half of every shard, so the pruner would hand
// each query to the scan. If the stylometric extractor ever yields sparse
// text attributes, this fails, and serving text worlds through the pruner
// (WithPruning) is the decision to revisit.
func TestTextWorldsAreDense(t *testing.T) {
	for _, forum := range []struct {
		name string
		cfg  func(int, int64) synth.ForumConfig
	}{{"webmd", synth.WebMDLike}, {"healthboards", synth.HBLike}} {
		for _, users := range []int{100, 300} {
			const seed = 4242
			u := synth.NewUniverse(users, seed)
			members := synth.Members(u, users, rand.New(rand.NewSource(seed+1)))
			d := synth.Generate(forum.cfg(users, seed+2), u, members)
			split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
			anonS, auxS := features.BuildPair(split.Anon, split.Aux, 0, features.Options{})
			base := similarity.NewScorer(anonS.UDA(), auxS.UDA(), testConfig)
			for i, sh := range New(base, auxS.UDA(), auxS, 2).Shards() {
				x := index.Build(scorerSource{sh.Scorer}, index.Config{})
				s := x.AcquireScratch()
				limit := sh.NumUsers() / 2
				for q := 0; q < anonS.NumUsers(); q++ {
					if c := x.CandidatesUpTo(sh.Scorer.AnonAttrs(q), s, limit); len(c) <= limit {
						t.Errorf("%s %d users, shard %d: user %d overlaps %d of %d auxiliary users",
							forum.name, users, i, q, len(c), sh.NumUsers())
					}
				}
				x.ReleaseScratch(s)
			}
		}
	}
}
