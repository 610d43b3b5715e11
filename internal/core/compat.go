// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat. The
// single-user names forward to a one-user batch. The approximate tier the
// others named is retired: each forwards to the pipeline's exact engine,
// and the tier's knobs and counters are ignored.

package core

import "dehealth/internal/index"

// Approx is Pruned with fresh counters.
//
// Deprecated: use Pruned.
func (p *Pipeline) Approx(cfg index.Config, _ *index.ApproxStats) *Pipeline {
	return p.Pruned(cfg, nil)
}

// QueryUser is a one-user QueryBatch.
//
// Deprecated: use QueryBatch.
func (p *Pipeline) QueryUser(u, k int) []Candidate { return p.QueryBatch([]int{u}, k, 0)[0] }

// QueryUserApprox is a one-user QueryBatch.
//
// Deprecated: use QueryBatch.
func (p *Pipeline) QueryUserApprox(u, k int, _ index.ApproxParams) []Candidate {
	return p.QueryBatch([]int{u}, k, 0)[0]
}

// QueryBatchApprox is QueryBatch.
//
// Deprecated: use QueryBatch.
func (p *Pipeline) QueryBatchApprox(users []int, k, workers int, _ index.ApproxParams) [][]Candidate {
	return p.QueryBatch(users, k, workers)
}
