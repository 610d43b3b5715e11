// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat. The
// approximate tier they named is retired: each forwards to the pipeline's
// exact engine, and the tier's knobs and counters are ignored.

package core

import "dehealth/internal/index"

// Approx is Pruned with fresh counters.
//
// Deprecated: use Pruned.
func (p *Pipeline) Approx(cfg index.Config, _ *index.ApproxStats) *Pipeline {
	return p.Pruned(cfg, nil)
}

// QueryUserApprox is QueryUser.
//
// Deprecated: use QueryUser.
func (p *Pipeline) QueryUserApprox(u, k int, _ index.ApproxParams) []Candidate {
	return p.QueryUser(u, k)
}

// QueryBatchApprox is QueryBatch.
//
// Deprecated: use QueryBatch.
func (p *Pipeline) QueryBatchApprox(users []int, k, workers int, _ index.ApproxParams) [][]Candidate {
	return p.QueryBatch(users, k, workers)
}
