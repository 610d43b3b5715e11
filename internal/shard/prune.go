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
// configuration. A query whose candidate set is dense (above
// MaxCandidateFrac of the window) is handed to the shard's full scan,
// which answers it faster and just as exactly; so each (shard, query) runs
// whichever of the two exact engines suits it. Pruning is an opt-in view
// of a World (WithPruning); the unpruned path is untouched.

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

// BuildIndex builds the shard's attribute inverted index and degree bands
// over its scorer window. Idempotent in effect: the aux side is immutable,
// so rebuilding yields an equivalent index.
func (sh *Shard) BuildIndex(cfg index.Config) {
	sh.Index = index.Build(scorerSource{sh.Scorer}, cfg)
}

// EnsureBlocks builds the shard index's id-range block metadata over the
// scorer window when missing — the restore path for snapshots written
// before format v2, which carry no block sections, so that a later save
// writes them. No-op when the shard has no index or the index already
// carries blocks. Must be called before the world is shared across
// queries: it mutates the index in place.
func (sh *Shard) EnsureBlocks(blockSize int) {
	if sh.Index != nil && sh.Index.BlockSize() == 0 {
		sh.Index.BuildBlocks(scorerSource{sh.Scorer}, blockSize)
	}
}

// TopKPruned is Shard.TopK through the candidate-pruning engine: same
// candidates, same order, same scores — bit-identical — with the scan
// restricted to attribute-overlap candidates plus the degree bands whose
// structural bound cannot rule them out. st accumulates the pruning
// counters (atomically; pass the world's shared stats).
func (sh *Shard) TopKPruned(u, k int, cfg index.Config, st *index.Stats) []Candidate {
	return sh.topKPruned(u, k, cfg, st, nil)
}

// topKPruned is TopKPruned with u's floor cell from fanOut (see topK). A
// query whose candidates exceed cfg.MaxCandidateFrac of the window is
// dense: rescoring that many users one by one costs more than the blocked
// scan, which shares the query's floor across shards and skips most rows
// with a popcount, so the pruner hands it to topK. Both engines return the
// shard's exact top-k, so the hand-off cannot change an answer. topK gets
// the caller's k, not the heap size kh clamped to the window: scan keeps a
// shard smaller than k away from the shared floor only when it sees the
// real k.
func (sh *Shard) topKPruned(u, k int, cfg index.Config, st *index.Stats, cells []floorCell) []Candidate {
	n := sh.NumUsers()
	kh := min(k, n)
	if kh <= 0 {
		return []Candidate{}
	}
	atomic.AddInt64(&st.Queries, 1)
	x := sh.Index
	if x == nil || !sh.Scorer.PruneSafe() {
		atomic.AddInt64(&st.Fallbacks, 1)
		return sh.topK(u, k, cells)
	}

	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)
	attrs := sh.Scorer.AnonAttrs(u)
	limit := n
	if cfg.MaxCandidateFrac < 1 {
		limit = int(cfg.MaxCandidateFrac * float64(n))
	}
	cands := x.CandidatesUpTo(attrs, s, limit)
	if len(cands) > limit {
		atomic.AddInt64(&st.DenseQueries, 1)
		return sh.topK(u, k, cells)
	}
	atomic.AddInt64(&st.Candidates, int64(len(cands)))

	var prof similarity.QueryProfile
	sh.Scorer.PrepareQuery(u, &prof)
	h := make(candidateHeap, 0, kh)
	push := func(j int32) {
		c := Candidate{User: sh.Lo + int(j), Score: sh.Scorer.ScoreWith(&prof, int(j))}
		if len(h) < kh {
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

	// The zero-overlap remainder: users sharing no attribute with the query
	// have s^a exactly 0 (disjoint attribute sets zero both Jaccard terms),
	// so per degree band one structural bound covers every unmarked member.
	// A band whose bound is strictly below the heap's K-th score is skipped
	// whole — the K-th score only rises, so a member skipped now is never
	// owed later. Ties must scan, since an equal-scoring smaller id would
	// displace the heap root, and an unfilled heap skips nothing. Every
	// zero-overlap user is either scanned or skipped, which is where the
	// skipped count comes from; a band of candidates only is never visited.
	var scanned, checked, bskipped int64
	bands := x.Bands()
	for bi := range bands {
		b := &bands[bi]
		if len(b.IDs) == s.BandCandidates(bi) {
			continue
		}
		if len(h) == kh {
			checked++
			if sh.Scorer.ScoreBoundBand(&prof, bandStats(b)) < h[0].Score {
				bskipped++
				continue
			}
		}
		for _, j := range b.IDs {
			if !s.Marked(j) {
				push(j)
				scanned++
			}
		}
	}
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
// through the candidate-pruning engine, which hands dense queries to the
// scan (see topKPruned). Each shard's inverted index is built (in
// parallel) over its scorer window unless one built under the same band
// count is present — the aux side is immutable, so indexes built once stay
// current through ingestion, which only grows the anonymized side. st,
// when non-nil, is the shared stats the pruned queries accumulate into
// (pass one struct across every pruned world derived from the same
// prepared world); nil allocates a fresh one. Results remain bit-identical
// to the unpruned world: pruning only changes which users are provably not
// scored.
func (w *World) WithPruning(cfg index.Config, st *index.Stats) *World {
	cfg = cfg.WithDefaults()
	if st == nil {
		st = &index.Stats{}
	}
	out := w.view()
	ParallelFor(len(out.shards), len(out.shards), func(i int) {
		if sh := out.shards[i]; sh.Index == nil || sh.Index.BuildConfig().Bands != cfg.Bands {
			sh.BuildIndex(cfg)
		}
	})
	out.prune, out.pstats = &cfg, st
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
