package synth

import (
	"fmt"
	"math/rand"

	"dehealth/internal/corpus"
	"dehealth/internal/graph"
	"dehealth/internal/stylometry"
)

// SparseAttrUDA builds a synthetic UDA graph with community-pooled sparse
// attribute sets: n users in communities of size comm, each community
// drawing its attributes from a small contiguous pool of the dim-wide
// attribute space, so same-community users overlap while the rest of the
// population (mostly) does not — the sparse-overlap regime the
// candidate-pruning index (internal/index) targets, standing in for
// stylometric attributes clustering by writing style. Topology comes from
// random co-posting threads, as in the real corpus model. Deterministic
// per seed; the pruning parity tests and the benchmark's sparse_walk
// workload build both world sides with it.
func SparseAttrUDA(n, comm, dim int, seed int64) *graph.UDA {
	rng := rand.New(rand.NewSource(seed))
	d := &corpus.Dataset{Name: "sparse-attr"}
	for i := 0; i < n; i++ {
		d.Users = append(d.Users, corpus.User{ID: i, Name: fmt.Sprintf("u%d", i), TrueIdentity: i})
	}
	for t := 0; t < n; t++ {
		d.Threads = append(d.Threads, corpus.Thread{ID: t, Board: "b", Starter: rng.Intn(n)})
		k := 2 + rng.Intn(3)
		for j := 0; j < k; j++ {
			d.Posts = append(d.Posts, corpus.Post{ID: len(d.Posts), User: rng.Intn(n), Thread: t, Text: "x"})
		}
	}
	const poolSize, attrsPer = 20, 8
	attrs := make([]stylometry.AttrSet, n)
	vecs := make([][][]float64, n)
	for u := 0; u < n; u++ {
		base := (u / comm) * poolSize % (dim - poolSize)
		picked := map[int]bool{}
		for len(picked) < attrsPer {
			picked[base+rng.Intn(poolSize)] = true
		}
		set := stylometry.AttrSet{Idx: make([]int32, 0, attrsPer), Weight: make([]int32, 0, attrsPer)}
		for a := base; a < base+poolSize; a++ { // ascending, as AttrSet requires
			if picked[a] {
				set.Idx = append(set.Idx, int32(a))
				set.Weight = append(set.Weight, int32(1+rng.Intn(3)))
			}
		}
		attrs[u] = set
		vecs[u] = [][]float64{{1}}
	}
	return graph.BuildUDAFromVectors(d, vecs, attrs)
}
