// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat. The
// single-user names forward to a one-user batch. The approximate tier the
// others named is retired: each forwards to the world's exact engine, and
// the tier's knobs and counters are ignored.

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

// TopK is a one-user TopKBatch.
//
// Deprecated: use TopKBatch.
func (sh *Shard) TopK(u, k int) []Candidate { return sh.TopKBatch([]int{u}, k)[0] }

// QueryUser is a one-user QueryBatch.
//
// Deprecated: use QueryBatch.
func (w *World) QueryUser(u, k int) []Candidate { return w.QueryBatch([]int{u}, k, 0)[0] }

// QueryUserApprox is a one-user QueryBatch.
//
// Deprecated: use QueryBatch.
func (w *World) QueryUserApprox(u, k int, _ index.ApproxParams) []Candidate {
	return w.QueryBatch([]int{u}, k, 0)[0]
}

// QueryBatchApprox is QueryBatch.
//
// Deprecated: use QueryBatch.
func (w *World) QueryBatchApprox(users []int, k, workers int, _ index.ApproxParams) [][]Candidate {
	return w.QueryBatch(users, k, workers)
}
