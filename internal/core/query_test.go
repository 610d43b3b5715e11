package core

import (
	"math/rand"
	"runtime"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
)

// queryPipeline builds a store-backed pipeline for a split.
func queryPipeline(split *corpus.Split, landmarks int) *Pipeline {
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	return NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: landmarks})
}

// withShards returns p with its query path re-partitioned into n shards
// (clamped as shard.Bounds documents) over p's own scorer.
func withShards(p *Pipeline, n int) *Pipeline {
	q := *p
	q.world = shard.New(p.Scorer, p.G2, nil, n)
	return &q
}

// assertSameCandidates fails unless the two candidate lists match exactly
// (set, order and scores).
func assertSameCandidates(t *testing.T, u int, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("user %d: %d candidates, want %d", u, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("user %d candidate %d: %+v != %+v", u, i, got[i], want[i])
		}
	}
}

// TestQueryUserMatchesTopK proves the served single-user path returns
// exactly the oracle's sort-based direct selection — candidate set and
// ordering — for every user, across closed- and open-world splits and
// several K, including K > |V2|.
func TestQueryUserMatchesTopK(t *testing.T) {
	d := fixedForum(24, 8, 21)
	splits := map[string]*corpus.Split{
		"closed": corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(22))),
		"open":   corpus.OpenWorldOverlap(d, 0.5, rand.New(rand.NewSource(23))),
	}
	for name, split := range splits {
		t.Run(name, func(t *testing.T) {
			p := queryPipeline(split, 5)
			// Every whole-window scan scores with the batched range kernel
			// and per-pair callers with the gather kernel; pin both to the
			// naive reference on this real-text world directly, not just
			// through the selections compared below.
			n1, n2 := p.G1.NumNodes(), p.G2.NumNodes()
			users, rows := make([]int, n1), make([][]float64, n1)
			for u := range users {
				users[u], rows[u] = u, make([]float64, n2)
			}
			var b similarity.BatchProfile
			p.Scorer.PrepareBatch(users, &b)
			p.Scorer.ScoreRangeBatch(&b, 0, n2, rows)
			for u, row := range rows {
				for v, got := range row {
					if want := p.Scorer.ScoreSlow(u, v); got != want || p.Scorer.Score(u, v) != want {
						t.Fatalf("pair (%d,%d): batched %v, gather %v, ScoreSlow %v", u, v, got, p.Scorer.Score(u, v), want)
					}
				}
			}
			for _, k := range []int{1, 3, 10, split.Aux.NumUsers() + 5} {
				tk := oracleTopK(p, k, nil)
				for u := 0; u < split.Anon.NumUsers(); u++ {
					assertSameCandidates(t, u, p.QueryUser(u, k), tk.Candidates[u])
				}
			}
		})
	}
}

// TestQueryBatchMatchesQueryUser proves the batched fan-out is a pure
// reordering of independent single queries, at several pool widths.
func TestQueryBatchMatchesQueryUser(t *testing.T) {
	split := world(t, 18, 6, 0.5, 31)
	p := queryPipeline(split, 5)
	users := make([]int, split.Anon.NumUsers())
	for i := range users {
		users[i] = i
	}
	for _, workers := range []int{0, 1, 3, 64} {
		got := p.QueryBatch(users, 4, workers)
		for i, u := range users {
			assertSameCandidates(t, u, got[i], p.QueryUser(u, 4))
		}
	}
	if got := p.QueryBatch(nil, 4, 8); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestQueryBatchShardedAfterIngest drives the batched fan-out through its
// serving shape: a sharded pipeline answers mixed batches — repeats, an
// appended user, batches wider and narrower than the kernel chunk —
// bit-identically to per-user QueryUser, before and after SyncAppended.
func TestQueryBatchShardedAfterIngest(t *testing.T) {
	split := world(t, 20, 6, 0.5, 33)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	p := NewShardedPipelineFromStore(anonS, auxS, cfg, 3)

	n0 := split.Anon.NumUsers()
	check := func(users []int, k int) {
		t.Helper()
		for _, workers := range []int{1, 2, 5} {
			got := p.QueryBatch(users, k, workers)
			for i, u := range users {
				assertSameCandidates(t, u, got[i], p.QueryUser(u, k))
			}
		}
	}
	wide := make([]int, 3*n0)
	for i := range wide {
		wide[i] = (i * 7) % n0
	}
	check([]int{0}, 4)
	check([]int{2, 2, 0, n0 - 1, 2}, 4)
	check(wide, 6)

	if _, err := anonS.Append([]features.UserPosts{
		{User: corpus.User{Name: "late", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: 0, Text: split.Aux.Posts[0].Text},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if added := p.SyncAppended(); added != 1 {
		t.Fatalf("SyncAppended added %d, want 1", added)
	}
	check([]int{n0, 0, n0, 3}, 5)
}

// TestQueryAppendedUserMatchesTopK ingests new anonymized users into the
// store behind a live pipeline and checks that, after SyncAppended, the
// incremental query path agrees with the oracle's full-matrix selection
// over the grown world — i.e. appended users are first-class citizens of
// the scorer.
func TestQueryAppendedUserMatchesTopK(t *testing.T) {
	split := world(t, 20, 8, 0.5, 41)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	p := NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})

	// Ingest two users: one replying into existing threads, one starting a
	// fresh thread.
	n0 := split.Anon.NumUsers()
	_, err := anonS.Append([]features.UserPosts{
		{User: corpus.User{Name: "newbie", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: 0, Text: split.Aux.Posts[0].Text},
			{Thread: 1, Text: split.Aux.Posts[1].Text},
		}},
		{User: corpus.User{Name: "loner", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: features.NewThread, Text: split.Aux.Posts[2].Text},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if added := p.SyncAppended(); added != 2 {
		t.Fatalf("SyncAppended added %d, want 2", added)
	}
	if p.G1.NumNodes() != n0+2 {
		t.Fatalf("anon graph has %d nodes, want %d", p.G1.NumNodes(), n0+2)
	}
	tk := oracleTopK(p, 5, nil)
	for u := 0; u < n0+2; u++ {
		assertSameCandidates(t, u, p.QueryUser(u, 5), tk.Candidates[u])
	}
}

// TestQueryUserAllocBounds verifies the serving guarantee behind QueryUser:
// per-query heap allocation is O(K) and in particular far below one
// similarity-matrix row (|V2| float64s), so the hot path cannot silently
// regress into materializing rows. The allocation *count* is pinned too:
// the scan is the batched one at width one, whose profile, block buffer
// and heap live in pooled scratch and whose kernel (PrepareBatch + blocked
// ScoreRangeBatch) allocates nothing per row, leaving only the result
// slice and the final sort — at most 4 allocs/op on a single-shard
// pipeline.
func TestQueryUserAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts at random")
	}
	split := world(t, 60, 6, 0.5, 51)
	p := queryPipeline(split, 5)
	n2 := p.G2.NumNodes()
	p.QueryUser(0, 10) // warm any lazy state

	const rounds = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		p.QueryUser(i%p.G1.NumNodes(), 10)
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	rowBytes := uint64(n2) * 8
	if perOp >= rowBytes {
		t.Fatalf("QueryUser allocates %d B/op, not below one matrix row (%d B)", perOp, rowBytes)
	}
	perOpAllocs := (after.Mallocs - before.Mallocs) / rounds
	if perOpAllocs > 4 {
		t.Fatalf("QueryUser allocates %d times/op, want <= 4 (heap, result, sort bookkeeping; the scoring kernel itself must allocate nothing)", perOpAllocs)
	}
}

// TestShardedQueryMatchesTopK is the tentpole parity guarantee at the
// pipeline level: for shard counts from 1 through beyond the auxiliary
// population, the fan-out/merge query path returns bit-identical candidate
// sets — set, order and scores — to the oracle's full-matrix direct
// selection, for every user and several K.
func TestShardedQueryMatchesTopK(t *testing.T) {
	split := world(t, 24, 6, 0.5, 61)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	base := NewPipelineFromStore(anonS, auxS, cfg)
	auxN := split.Aux.NumUsers()
	if base.Shards() != 1 {
		t.Fatalf("unsharded pipeline reports %d shards, want 1", base.Shards())
	}

	for _, n := range []int{1, 2, 3, 4, 7, auxN, auxN + 5} {
		p := NewShardedPipelineFromStore(anonS, auxS, cfg, n)
		derived := withShards(base, n)
		for _, k := range []int{1, 5, auxN + 3} {
			tk := oracleTopK(base, k, nil)
			for u := 0; u < split.Anon.NumUsers(); u++ {
				assertSameCandidates(t, u, p.QueryUser(u, k), tk.Candidates[u])
				assertSameCandidates(t, u, derived.QueryUser(u, k), tk.Candidates[u])
			}
		}
	}
}

// TestShardedIngestThenQueryParity grows the anonymized side behind a
// sharded pipeline and checks the appended users query identically to an
// unsharded pipeline over the grown world — the anon-side caches are
// shared across shard windows, so one SyncAppended covers the fan-out
// path.
func TestShardedIngestThenQueryParity(t *testing.T) {
	split := world(t, 20, 6, 0.5, 63)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	sharded := NewShardedPipelineFromStore(anonS, auxS, cfg, 3)

	n0 := split.Anon.NumUsers()
	if _, err := anonS.Append([]features.UserPosts{
		{User: corpus.User{Name: "observed-1", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: 0, Text: split.Aux.Posts[0].Text},
		}},
		{User: corpus.User{Name: "observed-2", TrueIdentity: -1}, Posts: []features.IncomingPost{
			{Thread: features.NewThread, Text: split.Aux.Posts[1].Text},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if added := sharded.SyncAppended(); added != 2 {
		t.Fatalf("SyncAppended added %d, want 2", added)
	}
	tk := oracleTopK(sharded, 5, nil)
	for u := 0; u < n0+2; u++ {
		assertSameCandidates(t, u, sharded.QueryUser(u, 5), tk.Candidates[u])
	}
}

// TestShardedWithSimilarity re-weights a sharded pipeline and checks the
// re-derived shard world scores like a freshly built one.
func TestShardedWithSimilarity(t *testing.T) {
	split := world(t, 18, 6, 0.5, 65)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	base := NewShardedPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}, 4)

	target := similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 5}
	rw := base.WithSimilarity(target)
	if rw.Shards() != 4 {
		t.Fatalf("reweighted pipeline has %d shards, want 4", rw.Shards())
	}
	fresh := NewShardedPipelineFromStore(anonS, auxS, target, 4)
	for u := 0; u < split.Anon.NumUsers(); u++ {
		assertSameCandidates(t, u, rw.QueryUser(u, 4), fresh.QueryUser(u, 4))
	}

	// Landmark-count changes rebuild the base scorer and re-shard.
	lm := base.WithSimilarity(similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 3})
	lmFresh := NewShardedPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 3}, 4)
	for u := 0; u < split.Anon.NumUsers(); u++ {
		assertSameCandidates(t, u, lm.QueryUser(u, 4), lmFresh.QueryUser(u, 4))
	}
}
