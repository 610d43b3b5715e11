package shard

import (
	"math/rand"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// testConfig is the paper's weighting at the small landmark count the test
// worlds afford.
var testConfig = similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}

// testStores builds a closed-world split of a synthetic WebMD-like forum
// (posts per user fixed when positive, Zipf-distributed otherwise), both
// sides' stores and the base scorer over them.
func testStores(t testing.TB, users, posts int, seed int64) (anonS, auxS *features.Store, base *similarity.Scorer) {
	t.Helper()
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = posts
	d := synth.Generate(cfg, u, members)
	split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
	anonS, auxS = features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	return anonS, auxS, similarity.NewScorer(anonS.UDA(), auxS.UDA(), testConfig)
}

// testWorld builds a small closed-world split's stores, aux UDA and base
// scorer — the ingredients a World is partitioned from.
func testWorld(t testing.TB, users, posts int, seed int64) (*features.Store, *graph.UDA, *similarity.Scorer, int) {
	t.Helper()
	anonS, auxS, base := testStores(t, users, posts, seed)
	return auxS, auxS.UDA(), base, anonS.UDA().NumNodes()
}

func TestBounds(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		want     []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 3, 6, 10}},
		{3, 7, []int{0, 1, 2, 3}}, // n > total clamps to total
		{5, 1, []int{0, 5}},
		{5, 0, []int{0, 5}},
		{5, -3, []int{0, 5}},
		{0, 4, []int{0, 0}}, // empty world: one empty shard
	} {
		got := Bounds(tc.total, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("Bounds(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("Bounds(%d, %d) = %v, want %v", tc.total, tc.n, got, tc.want)
			}
		}
	}
}

// TestShardedQueryParity is the package's core guarantee: for every shard
// count — including 1, non-divisors, |aux| and beyond — QueryUser and
// QueryBatch return bit-identical candidates to the single-shard world.
func TestShardedQueryParity(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 26, 6, 11)
	auxN := auxUDA.NumNodes()
	single := New(base, auxUDA, auxS, 1)
	if single.N() != 1 || single.Shards()[0].Scorer != base {
		t.Fatal("single-shard world must wrap the base scorer directly")
	}

	users := make([]int, anonN)
	for i := range users {
		users[i] = i
	}
	for _, n := range []int{2, 3, 5, auxN, auxN + 13} {
		w := New(base, auxUDA, auxS, n)
		wantShards := n
		if wantShards > auxN {
			wantShards = auxN
		}
		if w.N() != wantShards {
			t.Fatalf("New(%d shards) built %d, want %d", n, w.N(), wantShards)
		}
		if w.AuxUsers() != auxN {
			t.Fatalf("world covers %d aux users, want %d", w.AuxUsers(), auxN)
		}
		for _, k := range []int{1, 4, auxN + 5} {
			batch := w.QueryBatch(users, k, 3)
			for u := 0; u < anonN; u++ {
				want := single.QueryUser(u, k)
				got := w.QueryUser(u, k)
				if len(got) != len(want) || len(batch[u]) != len(want) {
					t.Fatalf("shards=%d k=%d user %d: lengths %d/%d, want %d", n, k, u, len(got), len(batch[u]), len(want))
				}
				for i := range want {
					if got[i] != want[i] || batch[u][i] != want[i] {
						t.Fatalf("shards=%d k=%d user %d cand %d: query %+v batch %+v, want %+v",
							n, k, u, i, got[i], batch[u][i], want[i])
					}
				}
			}
		}
		// Shard views and store partition agree on bounds.
		views := auxS.Partition(n)
		for i, sh := range w.Shards() {
			if sh.View.Lo != views[i].Lo || sh.View.Hi != views[i].Hi {
				t.Fatalf("shard %d view [%d,%d) != store partition [%d,%d)",
					i, sh.View.Lo, sh.View.Hi, views[i].Lo, views[i].Hi)
			}
			if sh.Sub.NumNodes() != sh.NumUsers() {
				t.Fatalf("shard %d subgraph has %d nodes, want %d", i, sh.Sub.NumNodes(), sh.NumUsers())
			}
		}
	}
}

// TestMergeTieBreaking pins the stable global tie-break: equal scores
// resolve to the smaller global id even when the winner lives in a later
// shard position of the merge input.
func TestMergeTieBreaking(t *testing.T) {
	parts := [][]Candidate{
		{{User: 7, Score: 1.0}, {User: 9, Score: 0.5}},
		{{User: 2, Score: 1.0}, {User: 3, Score: 0.5}},
		{{User: 11, Score: 2.0}},
	}
	got := MergeTopK(parts, 4)
	want := []Candidate{{11, 2.0}, {2, 1.0}, {7, 1.0}, {3, 0.5}}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if trunc := MergeTopK(parts, 99); len(trunc) != 5 {
		t.Fatalf("k beyond union returned %d candidates, want 5", len(trunc))
	}
}

// TestWithScorerReshard re-weights the base scorer and checks the
// re-derived world matches a freshly partitioned one while reusing the
// induced subgraphs and views.
func TestWithScorerReshard(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 20, 5, 17)
	w := New(base, auxUDA, auxS, 3)
	rw := base.Reweighted(similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 5})
	got := w.WithScorer(rw)
	fresh := New(rw, auxUDA, auxS, 3)
	for i, sh := range got.Shards() {
		if sh.Sub != w.Shards()[i].Sub {
			t.Fatalf("shard %d subgraph rebuilt, want reuse", i)
		}
	}
	for u := 0; u < anonN; u++ {
		a, b := got.QueryUser(u, 5), fresh.QueryUser(u, 5)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d cand %d: %+v != %+v", u, i, a[i], b[i])
			}
		}
	}
}

// TestRouteStability pins the ingest-routing hash: deterministic across
// worlds built independently over the same data, uniform enough to touch
// every shard, and degenerate-safe.
func TestRouteStability(t *testing.T) {
	auxS, auxUDA, base, _ := testWorld(t, 18, 5, 23)
	w1 := New(base, auxUDA, auxS, 4)
	w2 := New(base, auxUDA, auxS, 4) // an independent "restart" of the same world
	names := []string{"jdoe", "anon-1723", "sleepless_in_ohio", "x", ""}
	seen := map[int]bool{}
	for _, name := range names {
		h1, h2 := w1.Route(name), w2.Route(name)
		if h1 != h2 {
			t.Fatalf("Route(%q) unstable across rebuilds: %d vs %d", name, h1, h2)
		}
		if h1 != RouteName(name, 4) {
			t.Fatalf("Route(%q) = %d, want RouteName %d", name, h1, RouteName(name, 4))
		}
		if h1 < 0 || h1 >= 4 {
			t.Fatalf("Route(%q) = %d out of range", name, h1)
		}
		seen[h1] = true
	}
	if len(seen) < 2 {
		t.Error("routing hash sent every probe name to one shard")
	}
	if RouteName("anything", 1) != 0 || RouteName("anything", 0) != 0 {
		t.Error("degenerate shard counts must route to 0")
	}
}

// TestEmptyWorld covers the zero-aux-user degenerate case end to end.
func TestEmptyWorld(t *testing.T) {
	empty := &corpus.Dataset{Name: "none"}
	anon := &corpus.Dataset{
		Name:    "one",
		Users:   []corpus.User{{ID: 0, Name: "a", TrueIdentity: -1}},
		Threads: []corpus.Thread{{ID: 0, Board: "x", Starter: 0}},
		Posts:   []corpus.Post{{ID: 0, User: 0, Thread: 0, Text: "hello out there"}},
	}
	anonS, auxS := features.BuildPair(anon, empty, 10, features.Options{})
	base := similarity.NewScorer(anonS.UDA(), auxS.UDA(), similarity.DefaultConfig())
	w := New(base, auxS.UDA(), auxS, 8)
	if w.N() != 1 || w.AuxUsers() != 0 {
		t.Fatalf("empty world: %d shards over %d users, want 1 over 0", w.N(), w.AuxUsers())
	}
	if got := w.QueryUser(0, 5); len(got) != 0 {
		t.Fatalf("query against empty aux world returned %v", got)
	}
}
