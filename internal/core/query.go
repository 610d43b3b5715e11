// Online query path. Serving a newly observed account needs exactly one
// row's top-K, and a lone query is a batch of one: QueryBatch routes every
// query through the pipeline's shard world, where each auxiliary shard
// streams its slice of the rows through bounded min-heaps (O(shard size)
// time, O(K) memory per query, no row or matrix allocation) and the
// per-shard heaps merge into the global top-K under the stable selection
// order (score descending, global auxiliary id ascending). The offline
// Top-K phase (TopK) runs strips of users through the same shard scan, so
// the serving path, the sharded serving path and the offline evaluation
// share one engine and cannot drift; what pins all of them is the
// sort-based ScoreSlow oracle in oracle_test.go. Pipeline is deliberately a
// thin coordinator here: validation lives below, scoring and merging live
// in internal/shard.

package core

import "fmt"

// checkQuery panics unless every user is an anonymized id and k is a valid
// candidate-set size; op names the calling method in the message. The
// public layer validates requests into errors before they reach here, so
// a violation is a caller bug.
func (p *Pipeline) checkQuery(op string, k int, users ...int) {
	n1 := p.G1.NumNodes()
	for _, u := range users {
		if u < 0 || u >= n1 {
			panic(fmt.Sprintf("core: %s user %d out of range [0, %d)", op, u, n1))
		}
	}
	if k < 1 {
		panic(fmt.Sprintf("core: K must be >= 1, got %d", k))
	}
}

// QueryBatch computes each entry of users' top-k auxiliary candidates in
// decreasing score order (ties by smaller auxiliary index), exactly as
// TopK(k, DirectSelection, nil).Candidates[u] would, with results lined
// up with users by index. Every batch, a lone query included, spreads its
// (chunk, shard) scans over at most workers goroutines, helpers taken only
// from the shard world's idle scan tokens (workers <= 0 allows one per
// core). Safe for concurrent use with other queries; not with
// ingestion (the serving layer serializes the two).
func (p *Pipeline) QueryBatch(users []int, k, workers int) [][]Candidate {
	p.checkQuery("QueryBatch", k, users...)
	return p.shardWorld().QueryBatch(users, k, workers)
}

// SyncAppended extends the pipeline's similarity caches over anonymized
// users appended to the underlying store/graph since the pipeline was built
// (or last synced), returning how many were added. The anonymized-side
// caches are shared across every shard window, so one sync covers the whole
// shard world. Serialize against queries.
func (p *Pipeline) SyncAppended() int {
	return p.Scorer.SyncAnon()
}
