// Online single-user query path. Serving a newly observed account needs
// exactly one row's top-K, so QueryUser routes the query through the
// pipeline's shard world: each auxiliary shard streams its slice of the
// row through a bounded min-heap (O(shard size) time, O(K) memory, no row
// or matrix allocation) and the per-shard heaps merge into the global
// top-K under the stable selection order (score descending, global
// auxiliary id ascending). The offline Top-K phase (TopK) runs strips of
// users through the same shard scan, so the serving path, the sharded
// serving path and the offline evaluation share one engine and cannot
// drift; what pins all of them is the sort-based ScoreSlow oracle in
// oracle_test.go. Pipeline is deliberately a thin coordinator here:
// validation lives below, scoring and merging live in internal/shard.

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

// QueryUser computes anonymized user u's top-k auxiliary candidates in
// decreasing score order (ties by smaller auxiliary index), exactly as
// TopK(k, DirectSelection, nil).Candidates[u] would. On a sharded pipeline
// the row fans out across shards in parallel. Safe for concurrent use with
// other queries; not with ingestion (the serving layer serializes the two).
func (p *Pipeline) QueryUser(u, k int) []Candidate {
	p.checkQuery("QueryUser", k, u)
	return p.shardWorld().QueryUser(u, k)
}

// QueryBatch answers one QueryUser per entry of users, fanning the batch
// out over a bounded worker pool (workers <= 0 uses GOMAXPROCS). Results
// line up with users by index.
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
