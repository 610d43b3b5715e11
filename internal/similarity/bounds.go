// Score upper bounds for candidate pruning. The inverted-index query path
// (internal/index, internal/shard) skips auxiliary users that share no
// attribute with the query user — but only when it can prove that no
// skipped user could enter the top-K. The proof obligation is an upper
// bound on Score(u, v) over every v in a degree band with zero attribute
// overlap; this file computes that bound from the same per-component
// decomposition Score uses, inflated by a small safety margin so floating-
// point rounding in the exact path can never exceed it. A conservative
// bound costs only extra scanning, never correctness.
//
// The whole-window scan prunes with the same pieces one pair at a time
// (ScoreRangeAbove, batch.go): the two ratio terms exactly, each cosine
// through cosBound against the row's own norm, and the attribute term
// through attrSimBound from an exact popcount intersection — inflated the
// same way, and only under PruneSafe.
//
// Beyond the degree/weighted-degree ranges, a band can carry the min/max
// L2 norms of its members' NCS and closeness vectors (BandStats). Cosine
// similarity is scale-invariant, so nonzero norm ranges cannot pull a
// cosine bound below 1 — but the zero/nonzero distinction can: a cosine
// against an all-zero vector is exactly 0 (that is Cosine's convention),
// so whenever the band's max norm is 0, or the query side's own norm is 0,
// the corresponding cosine term drops out of the bound entirely. On the
// sparse disconnected correlation graphs the paper describes (Fig.7),
// whole bands of isolated or landmark-unreachable users lose their
// distance-similarity headroom this way, which is what turns near-miss
// bands into certified skips.

package similarity

import (
	"math"

	"dehealth/internal/stylometry"
)

// Bound safety margins: upper bounds are inflated by a relative factor and
// an absolute epsilon so that rounding in the exact Score computation (for
// example a cosine landing a few ulps above 1) can never produce a score
// above the bound. The inflation is orders of magnitude larger than any
// accumulated float64 rounding on the handful of operations Score performs,
// and orders of magnitude smaller than real score differences.
const (
	boundRelMargin = 1e-9
	boundAbsMargin = 1e-12
)

// inflate applies the safety margins to a raw upper bound.
func inflate(b float64) float64 {
	return b*(1+boundRelMargin) + boundAbsMargin
}

// RatioSimBound returns an upper bound on ratioSim(a, b) over all b in
// [lo, hi] (the min/max ratio used by the degree similarity). When a lies
// inside the interval some b equals a and the bound is 1; outside, the
// closest endpoint gives the tightest ratio. Degenerate intervals
// containing 0 bound to 1, matching ratioSim's convention for isolated
// nodes.
func RatioSimBound(a, lo, hi float64) float64 {
	if lo <= a && a <= hi {
		return 1
	}
	if a < lo {
		if lo == 0 {
			return 1
		}
		return a / lo
	}
	if a == 0 {
		return 1
	}
	return hi / a
}

// AnonAttrs returns the attribute set of anonymized user u — the query
// side of the attribute inverted index.
func (s *Scorer) AnonAttrs(u int) stylometry.AttrSet { return s.g1.Attrs[u] }

// AuxAttrs returns window-local auxiliary user j's attribute set (shared;
// do not modify). Index construction reads the aux side exclusively
// through these accessors so the index sees exactly the frozen values the
// scoring hot loop sees.
func (s *Scorer) AuxAttrs(j int) stylometry.AttrSet { return s.ax.attrs[j] }

// AuxDegree returns window-local auxiliary user j's (global) degree.
func (s *Scorer) AuxDegree(j int) float64 { return s.ax.deg[j] }

// AuxWeightedDegree returns window-local auxiliary user j's (global)
// weighted degree.
func (s *Scorer) AuxWeightedDegree(j int) float64 { return s.ax.wdeg[j] }

// AuxNCSNorm returns the precomputed L2 norm of window-local auxiliary
// user j's NCS vector — the value the scoring kernel divides by, so band
// norm ranges built from it can never drift from scoring.
func (s *Scorer) AuxNCSNorm(j int) float64 { return s.ax.ncsNorm[j] }

// AuxCloseNorm returns the precomputed L2 norm of window-local auxiliary
// user j's hop-closeness vector.
func (s *Scorer) AuxCloseNorm(j int) float64 { return s.ax.closeNorm[j] }

// AuxWclNorm returns the precomputed L2 norm of window-local auxiliary
// user j's weighted-closeness vector.
func (s *Scorer) AuxWclNorm(j int) float64 { return s.ax.wclNorm[j] }

// PruneSafe reports whether the scorer's configuration admits safe
// candidate pruning: all three component weights must be non-negative,
// since the band bounds multiply per-component upper bounds by the weights
// (a negative weight would turn an upper bound into a lower one). The
// paper's configurations are all non-negative; a scorer that is not
// prune-safe simply falls back to the full scan.
func (s *Scorer) PruneSafe() bool {
	return s.cfg.C1 >= 0 && s.cfg.C2 >= 0 && s.cfg.C3 >= 0
}

// BandStats carries a degree band's per-member ranges for the structural
// score bound: degree and weighted-degree intervals, plus the min/max L2
// norms of the members' NCS, hop-closeness and weighted-closeness vectors.
// The norm minima are not consulted by the bound (cosines are
// scale-invariant; only "is any member nonzero" matters, which the maxima
// answer) but are part of the band summary the index stores. Unknown norm
// ranges are expressed as NormHi = +Inf, which degrades each cosine bound
// to 1 — the pre-norm-range behavior.
type BandStats struct {
	DegLo, DegHi             float64
	WdegLo, WdegHi           float64
	NCSNormLo, NCSNormHi     float64
	CloseNormLo, CloseNormHi float64
	WclNormLo, WclNormHi     float64
}

// cosBound bounds a cosine term over a band: 0 when the query vector is
// all-zero (its cosine against anything is exactly 0) or every band
// member's vector is all-zero (max norm 0), else 1.
func cosBound(queryNorm, bandNormHi float64) float64 {
	if queryNorm == 0 || bandNormHi == 0 {
		return 0
	}
	return 1
}

// ScoreBoundBand returns an upper bound on Score(p.User(), v) over every
// auxiliary user v that (a) shares no attribute with the query user — so
// both Jaccard terms of s^a are exactly zero — and (b) falls inside
// the band's degree, weighted-degree and vector-norm ranges. The ratio
// terms are bounded by RatioSimBound over the band's intervals; each
// cosine term by cosBound, which is 0 whenever either side of that cosine
// is provably all-zero and 1 otherwise. The result carries the safety
// margin, so a strict comparison kthScore > bound certifies that no such
// v can displace any of the current top-K. Returns +Inf when the
// configuration is not prune-safe, which forces the caller to scan.
func (s *Scorer) ScoreBoundBand(p *QueryProfile, b BandStats) float64 {
	if !s.PruneSafe() {
		return math.Inf(1)
	}
	degSim := RatioSimBound(p.deg, b.DegLo, b.DegHi) +
		RatioSimBound(p.wdeg, b.WdegLo, b.WdegHi) +
		cosBound(p.ncsNorm, b.NCSNormHi)
	distSim := cosBound(p.closeNorm, b.CloseNormHi) + cosBound(p.wclNorm, b.WclNormHi)
	return inflate(s.cfg.C1*degSim + s.cfg.C2*distSim)
}

// AttrScoreBounds fills ub (reusing its capacity; pass nil to allocate)
// with one admissible upper bound per query attribute: ub[i] bounds the
// attribute-similarity contribution that attribute p.attrs.Idx[i] alone
// can add to Score(p.User(), v) for any auxiliary v, weighted by C3.
// Writing A for the query's attribute set, I for the overlap with v's
// set B, and w for the query-side weights:
//
//	Jaccard  = |I| / (|A| + |B| - |I|)           <= sum over I of 1/|A|
//	WJaccard = w(I) / (W_A + W_B - w(I))         <= sum over I of w(a)/W_A
//
// since the intersection never exceeds either side (|I| <= |B| and the
// min-weight overlap never exceeds W_B keep both denominators >= the
// query-side totals). Summing ub[i] over any candidate attribute subset
// therefore bounds the candidate's whole s^a term, which is what the
// max-score/WAND pivot walk accumulates per posting cursor. Each bound
// carries the safety margin, so a strict comparison against a sum of
// these bounds can never lose an exact-path candidate to rounding. The
// weighted term drops out for a query with zero total attribute weight.
func (s *Scorer) AttrScoreBounds(p *QueryProfile, ub []float64) []float64 {
	n := len(p.attrs.Idx)
	if cap(ub) < n {
		ub = make([]float64, n)
	}
	ub = ub[:n]
	inv := 0.0
	if n > 0 {
		inv = 1 / float64(n)
	}
	for i := range ub {
		raw := inv
		if p.attrTotW > 0 {
			raw += float64(p.attrs.Weight[i]) / float64(p.attrTotW)
		}
		ub[i] = inflate(s.cfg.C3 * raw)
	}
	return ub
}

// attrSimBound returns an upper bound on the attribute similarity
// (Jaccard + weighted Jaccard) of two attribute sets A and B given inter =
// |A∩B| exactly — the batched kernel reads it off two presence bitsets by
// AND+popcount — and each side's size and total weight. The Jaccard term is
// exact: it is the very quotient the merge computes. The weighted term
// needs Σmin(w) over the intersection, which only the merge knows; weights
// are >= 1 (stylometry.AttrSet), so each shared attribute contributes 1
// plus at most its excess w-1 on either side, and the excesses of a side
// sum to at most that side's total excess:
//
//	Σmin(w) <= |A∩B| + min(W_A - |A|, W_B - |B|)   and   Σmin(w) <= min(W_A, W_B)
//
// The bound is attrSimOf — the merge's own final step — at that larger
// Σmin(w): x / (W_A + W_B - x) grows with x, and int-to-float conversion,
// division and the final addition round monotonically, so the result is >=
// the attrSim the kernel would compute, rounding included.
func attrSimBound(inter, lenA, lenB, totA, totB int) float64 {
	winter := min(inter+min(totA-lenA, totB-lenB), totA, totB)
	return attrSimOf(inter, winter, lenA+lenB, totA+totB)
}
