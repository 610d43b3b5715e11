// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat. The
// approximate tier they named is retired: each forwards to the world's
// exact engine, and the tier's knobs and counters are ignored.

package shard

import "dehealth/internal/index"

// TopKApprox is TopKPruned with throwaway counters.
//
// Deprecated: use TopKPruned.
func (sh *Shard) TopKApprox(u, k int, cfg index.Config, _ index.ApproxParams, _ *index.ApproxStats) []Candidate {
	return sh.TopKPruned(u, k, cfg, &index.Stats{})
}

// WithApprox is WithPruning with fresh counters.
//
// Deprecated: use WithPruning.
func (w *World) WithApprox(cfg index.Config, _ *index.ApproxStats) *World {
	return w.WithPruning(cfg, nil)
}

// QueryUserApprox is QueryUser.
//
// Deprecated: use QueryUser.
func (w *World) QueryUserApprox(u, k int, _ index.ApproxParams) []Candidate {
	return w.QueryUser(u, k)
}

// QueryBatchApprox is QueryBatch.
//
// Deprecated: use QueryBatch.
func (w *World) QueryBatchApprox(users []int, k, workers int, _ index.ApproxParams) [][]Candidate {
	return w.QueryBatch(users, k, workers)
}
