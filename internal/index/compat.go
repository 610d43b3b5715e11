// Names kept only because the frozen benchmark program (benchmark/) still
// uses them; scripts/benchmark_names.txt tags each one compat. The
// approximate tier they described is retired: every query runs through an
// exact engine.

package index

import "dehealth/internal/stylometry"

// ApproxParams were the knobs of the retired approximate tier.
//
// Deprecated: queries are always answered exactly; the knobs are ignored.
type ApproxParams struct {
	Theta  float64
	Budget int
}

// ApproxStats were the counters of the retired approximate tier.
//
// Deprecated: nothing counts into it; every field stays 0.
type ApproxStats struct {
	PostingsSkipped int64
	Rescored        int64
	BlocksChecked   int64
	BlocksSkipped   int64
	CursorsDemoted  int64
}

// Snapshot returns a copy of the counters.
//
// Deprecated: the counters stay 0.
func (s *ApproxStats) Snapshot() ApproxStats { return *s }

// Candidates is the uncapped CandidatesUpTo.
//
// Deprecated: use CandidatesUpTo.
func (x *Index) Candidates(attrs stylometry.AttrSet, s *Scratch) []int32 {
	return x.CandidatesUpTo(attrs, s, x.n)
}
