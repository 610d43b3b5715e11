// The per-pair gather kernel and the naive oracle. The package scores in
// three roles, all bit-identical on every pair:
//
//   - range scan: ScoreRangeAbove (batch.go) streams a contiguous aux
//     window against a batch of prepared queries, answering pairs it can
//     prove below a caller-supplied floor with that proof instead of the
//     score. Its one production caller is the shard scan
//     (internal/shard/batch.go), which serves every whole-window walk:
//     /v1/query and /v1/batch, Shard.TopK, and the offline Top-K DA phase
//     behind Attack and the paper figures. ScoreRangeBatch is the same
//     kernel without floors.
//   - per-pair gather: ScoreWith scores one prepared query against one
//     auxiliary user, for callers that visit scattered rows — the pruner's
//     exact rescores, refined-DA verification and Score. ScoreRange is the same expression looped over a range; no
//     production path calls it (the benchmark's per-layer probe does).
//   - oracle: ScoreSlow re-derives everything per pair from the graphs;
//     tests and the benchmark's correctness check compare against it.
//
// Both production kernels prepare the anonymized side once per query
// (QueryProfile) and allocate nothing per pair. Bit-identity with ScoreSlow
// holds because no floating-point operation changes order or operands:
//
//   - each cosine's dot product accumulates in the same index order over
//     the same values; the norm factors are the same index-order sums,
//     merely computed once (l2norm) instead of per pair — sqrt is exact on
//     equal inputs, and dot/(na*nb) multiplies the same two float64s;
//   - the fused attribute merge only reassociates *integer* arithmetic:
//     |A∪B| = |A|+|B|−|A∩B| and Σmax(w) = ΣwA+ΣwB−Σmin(w) are exact, so
//     the final float64 divisions see identical numerators/denominators;
//   - the ratio terms read the same frozen degree values.
//
// The parity tests (kernel_test.go) pin this equivalence on randomized
// worlds, including nodes appended after SyncAnon; core's oracle table
// (oracle_test.go) pins it on real-text worlds.

package similarity

import "dehealth/internal/stylometry"

// QueryProfile is the prepared anonymized-side state of one query user:
// everything ScoreWith needs that does not depend on the auxiliary user.
// Prepare it with PrepareQuery; the zero value is only valid after that.
// A profile holds views into the scorer's caches — it stays valid until
// the next SyncAnon and must not outlive it.
type QueryProfile struct {
	u          int
	deg, wdeg  float64
	attrs      stylometry.AttrSet
	attrTotW   int
	ncs        []float64
	ncsNorm    float64
	close, wcl []float64
	closeNorm  float64
	wclNorm    float64
}

// User returns the anonymized user the profile was prepared for.
func (p *QueryProfile) User() int { return p.u }

// PrepareQuery fills p with anonymized user u's scoring state: live
// degree and weighted degree (read once per query instead of once per
// pair, preserving the live-read semantics of the naive path — the graph
// does not mutate during a query), the attribute set with its total
// weight, and flat vector views with precomputed norms. p is caller-owned
// so the hot path allocates nothing; reuse one profile per query.
func (s *Scorer) PrepareQuery(u int, p *QueryProfile) {
	c := s.c
	p.u = u
	p.deg = float64(s.g1.Degree(u))
	p.wdeg = s.g1.WeightedDegree(u)
	p.attrs = s.g1.Attrs[u]
	p.attrTotW = p.attrs.TotalWeight()
	p.ncs = c.ncsVec(u)
	p.ncsNorm = c.ncsNorm1[u]
	p.close = c.closeVec(u)
	p.closeNorm = c.closeNorm1[u]
	p.wcl = c.wclVec(u)
	p.wclNorm = c.wclNorm1[u]
}

// ScoreWith computes Score(p.User(), v) from the prepared profile — the
// per-pair gather kernel: two ratio terms, three precomputed-norm cosines
// and one fused attribute merge, all over dense frozen state. It is
// bit-identical to Score and ScoreSlow.
func (s *Scorer) ScoreWith(p *QueryProfile, v int) float64 {
	ax := s.ax
	d := ratioSim(p.deg, ax.deg[v]) + ratioSim(p.wdeg, ax.wdeg[v]) +
		cosinePre(p.ncs, p.ncsNorm, ax.ncsVec(v), ax.ncsNorm[v])
	h := ax.hbar2
	ds := cosinePre(p.close, p.closeNorm, ax.close[v*h:(v+1)*h], ax.closeNorm[v]) +
		cosinePre(p.wcl, p.wclNorm, ax.wcl[v*h:(v+1)*h], ax.wclNorm[v])
	a := attrSimFused(p.attrs, p.attrTotW, ax.attrs[v], ax.attrTotW[v])
	return s.cfg.C1*d + s.cfg.C2*ds + s.cfg.C3*a
}

// ScoreRange evaluates the row slice Score(p.User(), v) for v in [lo, hi)
// into out (len(out) must be hi-lo): ScoreWith looped over a range, with
// zero allocations. Whole-window scans use ScoreRangeAbove instead; this
// stays for the benchmark's per-pair cost probe.
func (s *Scorer) ScoreRange(p *QueryProfile, lo, hi int, out []float64) {
	_ = out[:hi-lo]
	for v := lo; v < hi; v++ {
		out[v-lo] = s.ScoreWith(p, v)
	}
}

// cosinePre is Cosine with both norm factors precomputed (na, nb are the
// vectors' sqrt(Σx²)): the dot product accumulates over the zero-padded
// overlap in the same index order, so the result is bit-identical to
// Cosine(a, b).
func cosinePre(a []float64, na float64, b []float64, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot float64
	for i := 0; i < n; i++ {
		dot += a[i] * b[i]
	}
	return dot / (na * nb)
}

// attrSimFused computes Jaccard + WeightedJaccard in one merge pass over
// the sorted attribute lists. The intersection yields both |A∩B| and
// Σmin(w) directly; the unions come from the precomputed totals
// (|A|+|B|−|A∩B| and ΣwA+ΣwB−Σmin(w)) — integer identities, so the two
// quotients match the naive two-pass computation exactly.
func attrSimFused(a stylometry.AttrSet, atot int, b stylometry.AttrSet, btot int) float64 {
	ai, bi := a.Idx, b.Idx
	var inter, winter int
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		switch {
		case ai[i] == bi[j]:
			inter++
			w := a.Weight[i]
			if bw := b.Weight[j]; bw < w {
				w = bw
			}
			winter += w
			i++
			j++
		case ai[i] < bi[j]:
			i++
		default:
			j++
		}
	}
	return attrSimOf(inter, winter, len(ai)+len(bi), atot+btot)
}

// attrSimOf turns a merge's integer outcome — |A∩B| and Σmin(w) — into
// Jaccard + weighted Jaccard, given |A|+|B| and W_A+W_B: the two unions are
// integer identities, so every caller's quotients see the numerators and
// denominators the naive two-pass computation sees.
func attrSimOf(inter, winter, sizes, weights int) float64 {
	var sim float64
	if union := sizes - inter; union > 0 {
		sim = float64(inter) / float64(union)
	}
	if wunion := weights - winter; wunion > 0 {
		sim += float64(winter) / float64(wunion)
	}
	return sim
}

// ScoreSlow is the retained naive reference kernel: the pre-flat-layout
// implementation that re-derives every invariant per pair — live graph
// reads for the anonymized degree terms, full norm re-summation inside
// each cosine, and the attribute term as the §III-B definitions
// stylometry.Jaccard + stylometry.WeightedJaccard, two independent merges
// counting their own unions. It exists so the parity tests and the
// benchmark's correctness check can prove the production kernels
// bit-identical to it; production paths never call it.
func (s *Scorer) ScoreSlow(u, v int) float64 {
	return s.cfg.C1*s.degreeSimSlow(u, v) + s.cfg.C2*s.distanceSimSlow(u, v) + s.cfg.C3*s.attrSimSlow(u, v)
}

func (s *Scorer) degreeSimSlow(u, v int) float64 {
	d := ratioSim(float64(s.g1.Degree(u)), s.ax.deg[v])
	wd := ratioSim(s.g1.WeightedDegree(u), s.ax.wdeg[v])
	return d + wd + Cosine(s.c.ncsVec(u), s.ax.ncsVec(v))
}

func (s *Scorer) distanceSimSlow(u, v int) float64 {
	return Cosine(s.c.closeVec(u), s.ax.closeVec(v)) + Cosine(s.c.wclVec(u), s.ax.wclVec(v))
}

func (s *Scorer) attrSimSlow(u, v int) float64 {
	return stylometry.Jaccard(s.g1.Attrs[u], s.ax.attrs[v]) +
		stylometry.WeightedJaccard(s.g1.Attrs[u], s.ax.attrs[v])
}
