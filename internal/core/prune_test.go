package core

import (
	"math/rand"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/index"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// pruneTestStores builds a small closed-world store pair.
func pruneTestStores(t *testing.T, users, posts int, seed int64) (*features.Store, *features.Store) {
	t.Helper()
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = posts
	d := synth.Generate(cfg, u, members)
	split := corpus.SplitClosedWorld(d, 0.5, rand.New(rand.NewSource(seed+3)))
	return features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
}

// TestPipelinePrunedParity pins the core-layer guarantee: a pruned
// pipeline's lone and batched queries are bit-identical to the unsharded
// unpruned pipeline, and WithSimilarity keeps both the pruning and the
// parity.
func TestPipelinePrunedParity(t *testing.T) {
	anonS, auxS := pruneTestStores(t, 22, 6, 41)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	plain := NewPipelineFromStore(anonS, auxS, cfg)
	st := &index.Stats{}
	pruned := NewShardedPipelineFromStore(anonS, auxS, cfg, 3).Pruned(index.Config{}, st)

	n1 := plain.G1.NumNodes()
	users := make([]int, n1)
	for i := range users {
		users[i] = i
	}
	for _, k := range []int{1, 4, 9} {
		for u := 0; u < n1; u++ {
			got, want := pruned.QueryBatch([]int{u}, k, 0)[0], plain.QueryBatch([]int{u}, k, 0)[0]
			if len(got) != len(want) {
				t.Fatalf("user %d k %d: %d candidates, want %d", u, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("user %d k %d candidate %d: %+v, want %+v", u, k, i, got[i], want[i])
				}
			}
		}
	}
	gb, wb := pruned.QueryBatch(users, 5, 2), plain.QueryBatch(users, 5, 2)
	for i := range wb {
		for j := range wb[i] {
			if gb[i][j] != wb[i][j] {
				t.Fatalf("batch user %d candidate %d mismatch", i, j)
			}
		}
	}
	if st.Snapshot().Queries == 0 {
		t.Fatal("pruned pipeline did not count queries")
	}

	re := pruned.WithSimilarity(similarity.Config{C1: 0.2, C2: 0.2, C3: 0.6, Landmarks: 5})
	rePlain := plain.WithSimilarity(similarity.Config{C1: 0.2, C2: 0.2, C3: 0.6, Landmarks: 5})
	for u := 0; u < n1; u++ {
		got, want := re.QueryBatch([]int{u}, 5, 0)[0], rePlain.QueryBatch([]int{u}, 5, 0)[0]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reweighted user %d candidate %d mismatch", u, i)
			}
		}
	}
}

// TestShardedKeepsPruning pins pruning across partitionings: pipelines cut
// into different shard counts over the same stores, pruned into one shared
// stats block, each build their own index windows, stay bit-identical to
// the unpruned path and count every shard-query into the one block.
func TestShardedKeepsPruning(t *testing.T) {
	anonS, auxS := pruneTestStores(t, 20, 5, 47)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4}
	plain := NewPipelineFromStore(anonS, auxS, cfg)
	st := &index.Stats{}
	pruned := NewShardedPipelineFromStore(anonS, auxS, cfg, 2).Pruned(index.Config{}, st)

	pruned.QueryBatch([]int{0}, 5, 0)
	if got := st.Snapshot().Queries; got != 2 {
		t.Fatalf("one query over the 2-shard pruned world counted %d shard-queries, want 2", got)
	}
	before := st.Snapshot().Queries
	resharded := NewShardedPipelineFromStore(anonS, auxS, cfg, 4).Pruned(index.Config{}, st)
	for u := 0; u < plain.G1.NumNodes(); u++ {
		got, want := resharded.QueryBatch([]int{u}, 5, 0)[0], plain.QueryBatch([]int{u}, 5, 0)[0]
		if len(got) != len(want) {
			t.Fatalf("user %d: %d candidates, want %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d candidate %d: %+v, want %+v", u, i, got[i], want[i])
			}
		}
	}
	if got, want := st.Snapshot().Queries-before, int64(4*plain.G1.NumNodes()); got != want {
		t.Fatalf("the 4-shard pruned world counted %d shard-queries into the shared block, want %d", got, want)
	}
}
