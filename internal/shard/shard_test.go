package shard

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// testConfig is the paper's weighting at the small landmark count the test
// worlds afford.
var testConfig = similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}

// testSplit is a closed-world split of a synthetic WebMD-like forum (posts
// per user fixed when positive, Zipf-distributed otherwise).
func testSplit(users, posts int, seed int64) *corpus.Split {
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = posts
	d := synth.Generate(cfg, u, members)
	return corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
}

// testStores builds testSplit's stores on both sides and the base scorer
// over them.
func testStores(t testing.TB, users, posts int, seed int64) (anonS, auxS *features.Store, base *similarity.Scorer) {
	t.Helper()
	split := testSplit(users, posts, seed)
	anonS, auxS = features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	return anonS, auxS, similarity.NewScorer(anonS.UDA(), auxS.UDA(), testConfig)
}

// withTwins returns d with every user duplicated — same posts, same
// threads — as user id+|users|: twin columns score identically under
// attribute-only weights, which makes every row tie-heavy.
func withTwins(d *corpus.Dataset) *corpus.Dataset {
	out := &corpus.Dataset{Name: d.Name, Threads: d.Threads}
	out.Users = append(out.Users, d.Users...)
	out.Posts = append(out.Posts, d.Posts...)
	for _, u := range d.Users {
		u.ID += len(d.Users)
		u.Name += "-twin"
		out.Users = append(out.Users, u)
	}
	for _, post := range d.Posts {
		post.ID += len(d.Posts)
		post.User += len(d.Users)
		out.Posts = append(out.Posts, post)
	}
	return out
}

// oracleTopK is u's top-k by full sort over base.Score's row: score
// descending, ties to the smaller id.
func oracleTopK(base *similarity.Scorer, u, k int) []Candidate {
	row := make([]Candidate, base.AuxUsers())
	for v := range row {
		row[v] = Candidate{User: v, Score: base.Score(u, v)}
	}
	sortCandidates(row)
	return row[:min(k, len(row))]
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
		// Shards cover Bounds' ranges with windows of their own size.
		bounds := Bounds(auxN, n)
		for i, sh := range w.Shards() {
			if sh.Lo != bounds[i] || sh.Hi != bounds[i+1] {
				t.Fatalf("shard %d spans [%d,%d), want [%d,%d)", i, sh.Lo, sh.Hi, bounds[i], bounds[i+1])
			}
			if sh.Scorer.AuxUsers() != sh.NumUsers() {
				t.Fatalf("shard %d scorer window covers %d users, want %d", i, sh.Scorer.AuxUsers(), sh.NumUsers())
			}
		}
	}
}

// TestSharedFloorParity pins fanOut's shared floors to a full-sort oracle
// on worlds whose shards span several score blocks, so floors engage and
// cross shards: a dense world and its tie-heavy twin (scores land exactly
// on a published floor), at shard counts that leave some shards one row
// short of others, with k from one to beyond the world — including k just
// above the smallest shard, where clamped shards (which must leave the
// cell alone) sit beside shards that publish — and with the helper
// goroutines on and off. It also checks that the cell really fires: a
// shard scanned after its sibling has published skips more rows than the
// same shard scanned alone.
func TestSharedFloorParity(t *testing.T) {
	split := testSplit(640, 2, 43)
	for _, tc := range []struct {
		name string
		aux  *corpus.Dataset
		cfg  similarity.Config
	}{
		{"dense", split.Aux, testConfig},
		{"dense-twins", withTwins(split.Aux), similarity.Config{C3: 1, Landmarks: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			anonS, auxS := features.BuildPair(split.Anon, tc.aux, 50, features.Options{})
			base := similarity.NewScorer(anonS.UDA(), auxS.UDA(), tc.cfg)
			auxN, anonN := auxS.UDA().NumNodes(), anonS.UDA().NumNodes()
			var users []int
			for u := 0; u < anonN; u += 11 {
				users = append(users, u)
			}
			want := make([][]Candidate, anonN)
			for _, u := range users {
				want[u] = oracleTopK(base, u, auxN)
			}
			mixed := false
			for _, n := range []int{2, 3, 7, 24} {
				w := New(base, auxS.UDA(), auxS, n)
				smallest := auxN
				for _, sh := range w.Shards() {
					smallest = min(smallest, sh.NumUsers())
				}
				for _, sh := range w.Shards() {
					mixed = mixed || sh.NumUsers() > smallest
				}
				for _, k := range []int{1, 10, smallest + 1, auxN + 5} {
					for _, helpers := range []bool{false, true} {
						for _, u := range users {
							got := w.fanOut(u, k, helpers)
							if exp := want[u][:min(k, auxN)]; !slices.Equal(got, exp) {
								t.Fatalf("shards=%d k=%d helpers=%v u=%d: %+v, oracle %+v", n, k, helpers, u, got, exp)
							}
						}
					}
				}
			}
			if !mixed {
				t.Fatal("no shard count left shards of unequal size; k above the smallest shard never met a shard that publishes")
			}
			// Inline fan-outs in both shard orders (a helper may take either
			// shard first; on the twin world the two shards' rows tie pair
			// by pair, so at k = 1 the second shard's best lands exactly on
			// the floor and must be kept): both merge to the oracle, every
			// listed score is exact, and the second shard skips more rows
			// than it does alone.
			sh := New(base, auxS.UDA(), auxS, 2).Shards()
			res, parts := make([][]Candidate, 1), make([][]Candidate, 2)
			for _, k := range []int{1, 10} {
				for _, order := range [][2]int{{0, 1}, {1, 0}} {
					alone, after := 0, 0
					for _, u := range users {
						alone += sh[order[1]].scan([]int{u}, k, nil, nil, res)
						cells := newFloorCells(1)
						for i, si := range order {
							n := sh[si].scan([]int{u}, k, cells, nil, res)
							if i == 1 {
								after += n
							}
							for _, c := range res[0] {
								if s := base.Score(u, c.User); c.Score != s {
									t.Fatalf("k=%d order %v u=%d: shard %d listed %+v, Score %v", k, order, u, si, c, s)
								}
							}
							parts[si] = res[0]
						}
						if got := MergeTopK(parts, k); !slices.Equal(got, want[u][:k]) {
							t.Fatalf("k=%d order %v u=%d: %+v, oracle %+v", k, order, u, got, want[u][:k])
						}
					}
					if after <= alone {
						t.Fatalf("k=%d order %v: the second shard skipped %d rows after its sibling published and %d alone; the shared floor never fired", k, order, after, alone)
					}
				}
			}
		})
	}
}

// TestQueryUserConcurrentParity runs one 3-shard world's QueryUser from
// several goroutines at once, so the helper-token budget runs dry and
// refills and a query's shards share their floor cell both inline and
// across goroutines, and checks every answer against the 1-shard world.
// It runs the plain world and the same world pruned, where every query of
// this dense world reaches the floor cells through the pruner's hand-off.
func TestQueryUserConcurrentParity(t *testing.T) {
	anonS, auxS, base := testStores(t, 640, 2, 47)
	anonN, auxN := anonS.UDA().NumNodes(), auxS.UDA().NumNodes()
	single, plain := New(base, auxS.UDA(), auxS, 1), New(base, auxS.UDA(), auxS, 3)
	ks := []int{1, 10, auxN/3 + 1}
	want := make([][][]Candidate, len(ks))
	for ki, k := range ks {
		want[ki] = make([][]Candidate, anonN)
		for u := range want[ki] {
			want[ki][u] = single.QueryUser(u, k)
		}
	}
	for _, w := range []*World{plain, plain.WithPruning(index.Config{}, nil)} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < anonN; i++ {
					u := (i*7 + g*31) % anonN
					for ki, k := range ks {
						if got := w.QueryUser(u, k); !slices.Equal(got, want[ki][u]) {
							t.Errorf("pruned=%v goroutine %d k=%d u=%d: %+v, 1-shard world %+v", w.Pruned(), g, k, u, got, want[ki][u])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if s := w.PruneStats(); s.DenseQueries != s.Queries {
			t.Fatalf("every query of the dense pruned world must be handed to the scan: %+v", s)
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
// re-derived world keeps the partition bounds and matches a freshly
// partitioned one.
func TestWithScorerReshard(t *testing.T) {
	auxS, auxUDA, base, anonN := testWorld(t, 20, 5, 17)
	w := New(base, auxUDA, auxS, 3)
	rw := base.Reweighted(similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 5})
	got := w.WithScorer(rw)
	fresh := New(rw, auxUDA, auxS, 3)
	for i, sh := range got.Shards() {
		if sh.Lo != w.Shards()[i].Lo || sh.Hi != w.Shards()[i].Hi {
			t.Fatalf("shard %d re-partitioned, want the same bounds", i)
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

// TestRouteStability pins the ingest-routing hash: a fixed function of the
// name alone (so a rebuilt world routes every account as before), uniform
// enough to touch every shard, and degenerate-safe.
func TestRouteStability(t *testing.T) {
	names := []string{"jdoe", "anon-1723", "sleepless_in_ohio", "x", ""}
	want := []int{3, 1, 1, 3, 1} // FNV-1a of the name, mod 4
	seen := map[int]bool{}
	for i, name := range names {
		h := RouteName(name, 4)
		if h != want[i] {
			t.Fatalf("RouteName(%q, 4) = %d, want %d", name, h, want[i])
		}
		seen[h] = true
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
