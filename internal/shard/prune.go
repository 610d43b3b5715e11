// Candidate-pruned shard queries. Each shard can own an attribute
// inverted index over its auxiliary window (internal/index); the pruned
// top-K path gathers the query user's attribute postings, exact-rescores
// only those candidates with the unchanged flat scoring kernel
// (ScoreWith under one prepared QueryProfile), and skips every
// zero-overlap user whose degree band's structural score bound
// (similarity.ScoreBoundBand, tightened by the band's NCS/closeness norm
// ranges) provably falls below the current K-th score. Whenever the proof
// does not cover a user — the heap is not yet full, or a band's bound
// reaches the threshold — that user is scanned exactly, so the pruned
// path returns results bit-identical to Shard.TopK at every
// configuration. Dense candidate sets (above MaxCandidateFrac of the
// window) no longer force a full-scan fallback: the candidates are scored
// either way, so the banded remainder costs no more exact scores than the
// fallback did while the tightened bounds can still skip zero-overlap
// bands. Pruning is an opt-in view of a World (WithPruning); the unpruned
// path is untouched.

package shard

import (
	"sync/atomic"

	"dehealth/internal/index"
	"dehealth/internal/similarity"
	"dehealth/internal/stylometry"
)

// scorerSource adapts a shard's scorer window to index.Source (and its
// NormSource extension): the index is built from exactly the frozen
// aux-side values — including the precomputed vector norms — the scoring
// hot loop reads, so postings, bands and norm ranges can never drift from
// scoring.
type scorerSource struct{ s *similarity.Scorer }

func (a scorerSource) NumUsers() int                  { return a.s.AuxUsers() }
func (a scorerSource) Attrs(u int) stylometry.AttrSet { return a.s.AuxAttrs(u) }
func (a scorerSource) Degree(u int) float64           { return a.s.AuxDegree(u) }
func (a scorerSource) WeightedDegree(u int) float64   { return a.s.AuxWeightedDegree(u) }
func (a scorerSource) NCSNorm(u int) float64          { return a.s.AuxNCSNorm(u) }
func (a scorerSource) CloseNorm(u int) float64        { return a.s.AuxCloseNorm(u) }
func (a scorerSource) WclNorm(u int) float64          { return a.s.AuxWclNorm(u) }

// bandStats projects an index band's ranges into the similarity layer's
// bound input.
func bandStats(b *index.Band) similarity.BandStats {
	return similarity.BandStats{
		DegLo: b.DegLo, DegHi: b.DegHi,
		WdegLo: b.WdegLo, WdegHi: b.WdegHi,
		NCSNormLo: b.NCSNormLo, NCSNormHi: b.NCSNormHi,
		CloseNormLo: b.CloseNormLo, CloseNormHi: b.CloseNormHi,
		WclNormLo: b.WclNormLo, WclNormHi: b.WclNormHi,
	}
}

// blockStats projects an id-range block's ranges into the similarity
// layer's bound input — the block-max walk's per-block structural bound
// is the same ScoreBoundBand the band pruning uses, over narrower ranges.
func blockStats(b *index.Block) similarity.BandStats {
	return similarity.BandStats{
		DegLo: b.DegLo, DegHi: b.DegHi,
		WdegLo: b.WdegLo, WdegHi: b.WdegHi,
		NCSNormLo: b.NCSNormLo, NCSNormHi: b.NCSNormHi,
		CloseNormLo: b.CloseNormLo, CloseNormHi: b.CloseNormHi,
		WclNormLo: b.WclNormLo, WclNormHi: b.WclNormHi,
	}
}

// BuildIndex builds the shard's attribute inverted index and degree bands
// over its scorer window. Idempotent in effect: the aux side is immutable,
// so rebuilding yields an equivalent index.
func (sh *Shard) BuildIndex(cfg index.Config) {
	sh.Index = index.Build(scorerSource{sh.Scorer}, cfg)
}

// EnsureBlocks builds the shard index's id-range block-max metadata over
// the scorer window when missing — the restore path for snapshots written
// before format v2, which carry no block sections. No-op when the shard
// has no index or the index already carries blocks. Must be called before
// the world is shared across queries: it mutates the index in place.
func (sh *Shard) EnsureBlocks(blockSize int) {
	if sh.Index != nil && sh.Index.BlockSize() == 0 {
		sh.Index.BuildBlocks(scorerSource{sh.Scorer}, blockSize)
	}
}

// EnsureBlocks applies Shard.EnsureBlocks to every shard.
func (w *World) EnsureBlocks(blockSize int) {
	for _, sh := range w.shards {
		sh.EnsureBlocks(blockSize)
	}
}

// zeroOverlap walks the part of the window both indexed engines owe after
// their attribute-overlap candidates: the users sharing no attribute with
// the query. Those have s^a exactly 0 (disjoint attribute sets zero
// both Jaccard terms), so per degree band one structural bound covers
// every unmarked member. The caller's skip decides, from that bound and
// its own running bar, whether the whole band can be passed over — the bar
// only rises afterwards, so a member skipped now can never be owed later —
// and visit receives each unmarked member of a band that was not, with the
// band's bound. A skipped or candidate-free band is never visited, so the
// cost is O(uncertified band members), not O(window).
//
// s carries the query's candidate marks. The pruner has them already (it
// rescored the candidates) and passes its scratch; the cursor walk passes
// nil, and the marking pass — one sweep over the query's posting lists
// labelling every attribute-overlap user, including users the walk skipped
// — is deferred until the first band fails its bound, so queries whose
// bounds certify every band (the common dense case) never pay for it.
func (sh *Shard) zeroOverlap(prof *similarity.QueryProfile, attrs stylometry.AttrSet, s *index.Scratch, skip func(bound float64) bool, visit func(j int32, bound float64)) {
	x := sh.Index
	bands := x.Bands()
	for bi := range bands {
		b := &bands[bi]
		if s != nil && len(b.IDs) == s.BandCandidates(bi) {
			continue
		}
		bound := sh.Scorer.ScoreBoundBand(prof, bandStats(b))
		if skip(bound) {
			continue
		}
		if s == nil {
			s = x.AcquireScratch()
			defer x.ReleaseScratch(s)
			x.Candidates(attrs, s)
		}
		for _, j := range b.IDs {
			if !s.Marked(j) {
				visit(j, bound)
			}
		}
	}
}

// TopKPruned is Shard.TopK through the candidate-pruning engine: same
// candidates, same order, same scores — bit-identical — with the scan
// restricted to attribute-overlap candidates plus the degree bands whose
// structural bound cannot rule them out. st accumulates the pruning
// counters (atomically; pass the world's shared stats).
func (sh *Shard) TopKPruned(u, k int, cfg index.Config, st *index.Stats) []Candidate {
	n := sh.NumUsers()
	if k > n {
		k = n
	}
	if k <= 0 {
		return []Candidate{}
	}
	atomic.AddInt64(&st.Queries, 1)
	x := sh.Index
	if x == nil || !sh.Scorer.PruneSafe() {
		atomic.AddInt64(&st.Fallbacks, 1)
		return sh.TopK(u, k)
	}

	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)
	attrs := sh.Scorer.AnonAttrs(u)
	cands := x.Candidates(attrs, s)
	if float64(len(cands)) > cfg.MaxCandidateFrac*float64(n) {
		// Dense overlap: the candidate rescore is most of a full scan, so
		// pruning can only win at the margin — but it can never lose: the
		// banded remainder below exact-scores at most the users a full
		// scan would, and the norm-tightened bounds may still certify
		// skipping whole zero-overlap bands. Label the query and proceed.
		atomic.AddInt64(&st.DenseQueries, 1)
	}
	atomic.AddInt64(&st.Candidates, int64(len(cands)))

	var prof similarity.QueryProfile
	sh.Scorer.PrepareQuery(u, &prof)
	h := make(candidateHeap, 0, k)
	push := func(j int32) {
		c := Candidate{User: sh.Lo + int(j), Score: sh.Scorer.ScoreWith(&prof, int(j))}
		if len(h) < k {
			h = append(h, c)
			h.up(len(h) - 1)
		} else if worse(h[0], c) {
			h[0] = c
			h.down(0)
		}
	}
	for _, j := range cands {
		push(j)
	}

	// Zero-overlap remainder against the heap's current K-th score. Ties
	// must scan — an equal-scoring smaller id would displace the heap root —
	// so skipping demands a strict inequality; an unfilled heap skips
	// nothing. Every zero-overlap user is either scanned or skipped, which
	// is where the skipped count comes from.
	var scanned, checked, bskipped int64
	sh.zeroOverlap(&prof, attrs, s, func(bound float64) bool {
		if len(h) < k {
			return false
		}
		checked++
		if bound < h[0].Score {
			bskipped++
			return true
		}
		return false
	}, func(j int32, _ float64) {
		push(j)
		scanned++
	})
	skipped := int64(n-len(cands)) - scanned
	atomic.AddInt64(&st.Scanned, scanned)
	atomic.AddInt64(&st.Skipped, skipped)
	atomic.AddInt64(&st.BandsChecked, checked)
	atomic.AddInt64(&st.BandsSkipped, bskipped)

	out := []Candidate(h)
	sortCandidates(out)
	return out
}

// WithPruning returns a world over the same shards whose queries run
// through the candidate-pruning engine. Each shard's inverted index is
// built (in parallel) over its scorer window unless already present —
// the aux side is immutable, so indexes built once stay current through
// ingestion, which only grows the anonymized side. st, when non-nil, is
// the shared stats the pruned queries accumulate into (pass one struct
// across every pruned world derived from the same prepared world); nil
// allocates a fresh one. Results remain bit-identical to the unpruned
// world: pruning only changes which users are provably not scored.
func (w *World) WithPruning(cfg index.Config, st *index.Stats) *World {
	cfg = cfg.WithDefaults()
	if st == nil {
		st = &index.Stats{}
	}
	out := w.withIndex(cfg)
	out.prune, out.pstats = &cfg, st
	return out
}

// withIndex returns a view of w whose every shard carries an index built
// under cfg, building the missing ones in parallel. An existing index is
// reused only when the configuration's build-relevant part matches; a
// different band count — or an index predating block-max metadata —
// rebuilds, so re-indexing under a new Config is never partially applied.
func (w *World) withIndex(cfg index.Config) *World {
	out := w.view()
	ParallelFor(len(out.shards), len(out.shards), func(i int) {
		if sh := out.shards[i]; sh.Index == nil || sh.Index.BuildConfig().Bands != cfg.Bands || sh.Index.BlockSize() == 0 {
			sh.BuildIndex(cfg)
		}
	})
	return out
}

// Pruned reports whether the world's queries run through the
// candidate-pruning engine.
func (w *World) Pruned() bool { return w.prune != nil }

// PruneStats snapshots the world's cumulative pruning counters (zero for
// an unpruned world).
func (w *World) PruneStats() index.Stats {
	if w.pstats == nil {
		return index.Stats{}
	}
	return w.pstats.Snapshot()
}
