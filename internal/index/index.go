// Package index implements the candidate-pruning structures behind the
// sublinear query hot path: a per-shard inverted index from attribute id
// to the posting list of auxiliary users carrying that attribute, plus
// degree bands that bound the structural similarity terms for users the
// postings do not reach.
//
// The De-Health similarity (§III-B) is dominated by attribute overlap —
// the paper's default weighting puts 0.9 of the score on the Jaccard
// terms — and both Jaccard terms are exactly zero for an auxiliary user
// who shares no attribute with the query user. QueryUser can therefore
// gather the union of the query user's attribute postings, exact-rescore
// only those candidates, and skip everyone else whenever the structural
// terms alone (bounded per degree band by similarity.ScoreBoundBand)
// provably cannot reach the current top-K threshold. When the proof fails
// — fewer than K candidates exist, or a band's bound meets the threshold —
// the engine scans exactly the users the proof does not cover, and a query
// whose candidate set is too large goes to the shard's full scan instead,
// so pruned results are bit-identical to the full scan at every
// configuration (see docs/ARCHITECTURE.md).
//
// An Index is immutable after Build: it covers the auxiliary side, which
// never grows (only the anonymized side is ingested online), so shards
// build their window's index once at partitioning time.
package index

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dehealth/internal/stylometry"
)

// foldRange widens [*lo, *hi] to cover v.
func foldRange(lo, hi *float64, v float64) {
	if v < *lo {
		*lo = v
	}
	if v > *hi {
		*hi = v
	}
}

// Config tunes candidate pruning. The zero value takes the defaults.
type Config struct {
	// MaxCandidateFrac classifies a query as dense when its candidate set
	// exceeds this fraction of the window (counted under
	// Stats.DenseQueries). The pruner hands a dense query to the shard's
	// full scan: rescoring most of the window one candidate at a time costs
	// more than the blocked scan, whose shared floors skip most rows
	// anyway. A fraction of 1 or more never hands off. Default 0.5.
	MaxCandidateFrac float64
	// Bands is the number of degree bands the window is cut into for the
	// structural-term bounds. More bands give tighter per-band degree
	// ranges (better skipping) at a slightly higher per-query check cost.
	// Default 16.
	Bands int
	// BlockSize is the width of the id-range structural blocks (see Block).
	// No query engine reads them; they are built because snapshot format
	// v2 stores them. Default 128.
	BlockSize int
}

// WithDefaults resolves zero fields to the default configuration.
func (c Config) WithDefaults() Config {
	if c.MaxCandidateFrac <= 0 {
		c.MaxCandidateFrac = 0.5
	}
	if c.Bands <= 0 {
		c.Bands = 16
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 128
	}
	return c
}

// Source is the window the index is built over: per-user attribute sets
// and (global) degrees, window-local ids in [0, NumUsers). A
// similarity.Scorer shard window satisfies the shape via its Aux*
// accessors; see dehealth/internal/shard for the adapter.
type Source interface {
	NumUsers() int
	Attrs(u int) stylometry.AttrSet
	Degree(u int) float64
	WeightedDegree(u int) float64
}

// NormSource is the optional Source extension supplying the precomputed
// L2 norms of each user's NCS, hop-closeness and weighted-closeness
// vectors — the same norm factors the flat scoring kernel divides by.
// When the source implements it, Build records per-band norm ranges that
// tighten the structural score bound (a band whose max norm is 0 provably
// contributes 0 for that cosine term); otherwise the ranges are recorded
// as unknown ([0, +Inf]) and the bound degrades to the cosine-≤-1 form.
type NormSource interface {
	NCSNorm(u int) float64
	CloseNorm(u int) float64
	WclNorm(u int) float64
}

// Band is a group of window-local users with adjacent degrees. DegLo..Hi
// and WdegLo..Hi bound every member's degree and weighted degree, and the
// norm ranges bound the members' NCS/closeness vector norms, so a single
// similarity.ScoreBoundBand call bounds the score of every member that
// shares no attribute with the query user.
type Band struct {
	// IDs lists the band's window-local user ids in ascending order.
	IDs []int32
	// DegLo and DegHi bound the members' degrees.
	DegLo, DegHi float64
	// WdegLo and WdegHi bound the members' weighted degrees.
	WdegLo, WdegHi float64
	// NCSNormLo and NCSNormHi bound the members' NCS vector L2 norms;
	// [0, +Inf] when the build source carried no norms (see NormSource).
	NCSNormLo, NCSNormHi float64
	// CloseNormLo and CloseNormHi bound the members' hop-closeness vector
	// L2 norms.
	CloseNormLo, CloseNormHi float64
	// WclNormLo and WclNormHi bound the members' weighted-closeness vector
	// L2 norms.
	WclNormLo, WclNormHi float64
}

// Block summarizes one fixed-width range of consecutive window-local ids:
// block b covers ids [b*BlockSize, (b+1)*BlockSize) and the ranges bound
// every covered id's degree, weighted degree and vector norms — a Band's
// bounds keyed by id range instead of degree rank. The retired cursor walk
// was their only reader; Build still computes them, and snapshot format v2
// still stores them, so that files keep their bytes.
type Block struct {
	// DegLo and DegHi bound the covered ids' degrees.
	DegLo, DegHi float64
	// WdegLo and WdegHi bound the covered ids' weighted degrees.
	WdegLo, WdegHi float64
	// NCSNormLo and NCSNormHi bound the covered ids' NCS vector L2 norms;
	// [0, +Inf] when the build source carried no norms.
	NCSNormLo, NCSNormHi float64
	// CloseNormLo and CloseNormHi bound the hop-closeness vector norms.
	CloseNormLo, CloseNormHi float64
	// WclNormLo and WclNormHi bound the weighted-closeness vector norms.
	WclNormLo, WclNormHi float64
}

// Index is the frozen per-window pruning structure: attribute postings
// and degree bands. Safe for concurrent queries.
type Index struct {
	n        int
	cfg      Config    // resolved build configuration
	postings [][]int32 // postings[attr] = ascending window-local ids with attr
	bands    []Band
	bandOf   []int32 // bandOf[u] = index into bands of u's band
	blkSize  int     // id-range width of blocks; 0 = no block metadata
	blocks   []Block // blocks[b] covers ids [b*blkSize, (b+1)*blkSize)
	scratch  sync.Pool
}

// BuildConfig returns the resolved configuration the index was built
// under. Callers deciding whether an existing index can serve a new
// configuration compare the build-relevant field (Bands); the query-time
// field (MaxCandidateFrac) needs no rebuild.
func (x *Index) BuildConfig() Config { return x.cfg }

// Build constructs the index of a window. Cost is O(sum |A(u)|) for the
// postings plus O(n log n) for the degree banding; memory is one int32
// per (user, attribute) pair plus one per user.
func Build(src Source, cfg Config) *Index {
	cfg = cfg.WithDefaults()
	n := src.NumUsers()
	x := &Index{n: n, cfg: cfg}

	maxAttr := -1
	for u := 0; u < n; u++ {
		if idx := src.Attrs(u).Idx; len(idx) > 0 && idx[len(idx)-1] > maxAttr {
			maxAttr = idx[len(idx)-1]
		}
	}
	x.postings = make([][]int32, maxAttr+1)
	for u := 0; u < n; u++ {
		for _, a := range src.Attrs(u).Idx {
			x.postings[a] = append(x.postings[a], int32(u))
		}
	}

	// Degree bands: users sorted by (degree, weighted degree) and cut into
	// near-equal runs, so each band spans a tight degree range.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := src.Degree(int(order[a])), src.Degree(int(order[b]))
		if da != db {
			return da < db
		}
		return src.WeightedDegree(int(order[a])) < src.WeightedDegree(int(order[b]))
	})
	nb := cfg.Bands
	if nb > n {
		nb = n
	}
	if nb < 1 {
		nb = 1
	}
	if n == 0 {
		x.BuildBlocks(src, cfg.BlockSize)
		return x
	}
	norms, _ := src.(NormSource)
	x.bands = make([]Band, 0, nb)
	for i := 0; i < nb; i++ {
		lo, hi := i*n/nb, (i+1)*n/nb
		if lo == hi {
			continue
		}
		b := Band{IDs: append([]int32(nil), order[lo:hi]...)}
		b.DegLo, b.WdegLo = src.Degree(int(b.IDs[0])), src.WeightedDegree(int(b.IDs[0]))
		b.DegHi, b.WdegHi = b.DegLo, b.WdegLo
		for _, id := range b.IDs[1:] {
			foldRange(&b.DegLo, &b.DegHi, src.Degree(int(id)))
			foldRange(&b.WdegLo, &b.WdegHi, src.WeightedDegree(int(id)))
		}
		if norms != nil {
			first := int(b.IDs[0])
			b.NCSNormLo, b.NCSNormHi = norms.NCSNorm(first), norms.NCSNorm(first)
			b.CloseNormLo, b.CloseNormHi = norms.CloseNorm(first), norms.CloseNorm(first)
			b.WclNormLo, b.WclNormHi = norms.WclNorm(first), norms.WclNorm(first)
			for _, id := range b.IDs[1:] {
				foldRange(&b.NCSNormLo, &b.NCSNormHi, norms.NCSNorm(int(id)))
				foldRange(&b.CloseNormLo, &b.CloseNormHi, norms.CloseNorm(int(id)))
				foldRange(&b.WclNormLo, &b.WclNormHi, norms.WclNorm(int(id)))
			}
		} else {
			inf := math.Inf(1)
			b.NCSNormHi, b.CloseNormHi, b.WclNormHi = inf, inf, inf
		}
		sort.Slice(b.IDs, func(a, c int) bool { return b.IDs[a] < b.IDs[c] })
		x.bands = append(x.bands, b)
	}
	x.bandOf = make([]int32, n)
	for bi, b := range x.bands {
		for _, id := range b.IDs {
			x.bandOf[id] = int32(bi)
		}
	}
	x.BuildBlocks(src, cfg.BlockSize)
	return x
}

// BuildBlocks (re)computes the id-range block metadata from src at the
// given block width (<= 0 resolves to the default). Build calls it with
// the configured width; it is also the restore path for snapshots written
// before the block-max format (v1), whose indexes carry no block sections
// — the caller rebuilds them from the restored scorer window. Not safe
// concurrently with queries: install blocks before serving.
func (x *Index) BuildBlocks(src Source, blockSize int) {
	if blockSize <= 0 {
		blockSize = Config{BlockSize: blockSize}.WithDefaults().BlockSize
	}
	x.cfg.BlockSize = blockSize
	x.blkSize = blockSize
	nb := (x.n + blockSize - 1) / blockSize
	x.blocks = make([]Block, nb)
	norms, _ := src.(NormSource)
	for b := 0; b < nb; b++ {
		lo, hi := b*blockSize, (b+1)*blockSize
		if hi > x.n {
			hi = x.n
		}
		blk := Block{
			DegLo: src.Degree(lo), DegHi: src.Degree(lo),
			WdegLo: src.WeightedDegree(lo), WdegHi: src.WeightedDegree(lo),
		}
		if norms != nil {
			blk.NCSNormLo, blk.NCSNormHi = norms.NCSNorm(lo), norms.NCSNorm(lo)
			blk.CloseNormLo, blk.CloseNormHi = norms.CloseNorm(lo), norms.CloseNorm(lo)
			blk.WclNormLo, blk.WclNormHi = norms.WclNorm(lo), norms.WclNorm(lo)
		} else {
			inf := math.Inf(1)
			blk.NCSNormHi, blk.CloseNormHi, blk.WclNormHi = inf, inf, inf
		}
		for u := lo + 1; u < hi; u++ {
			foldRange(&blk.DegLo, &blk.DegHi, src.Degree(u))
			foldRange(&blk.WdegLo, &blk.WdegHi, src.WeightedDegree(u))
			if norms != nil {
				foldRange(&blk.NCSNormLo, &blk.NCSNormHi, norms.NCSNorm(u))
				foldRange(&blk.CloseNormLo, &blk.CloseNormHi, norms.CloseNorm(u))
				foldRange(&blk.WclNormLo, &blk.WclNormHi, norms.WclNorm(u))
			}
		}
		x.blocks[b] = blk
	}
}

// BlockSize returns the id-range width of the block metadata, 0 when the
// index carries none (a pre-v2 snapshot restore before BuildBlocks).
func (x *Index) BlockSize() int { return x.blkSize }

// Scratch is reusable per-query marking state: an epoch-stamped candidate
// marker (no O(window) zeroing between queries), the per-band candidate
// counts of the last Candidates call, and the candidate list's backing
// array. Acquire one per query from the index's pool and release it when
// the query's reads of Marked / BandCandidates / the returned candidate
// slice are done. A Scratch is owned by one goroutine at a time.
type Scratch struct {
	stamp    []uint32 // stamp[u] == epoch marks u a candidate this query
	epoch    uint32
	bandCand []int32
	cands    []int32
}

// AcquireScratch returns a scratch sized for the index, from a pool.
func (x *Index) AcquireScratch() *Scratch {
	if s, ok := x.scratch.Get().(*Scratch); ok && s != nil {
		return s
	}
	return &Scratch{stamp: make([]uint32, x.n), bandCand: make([]int32, len(x.bands))}
}

// ReleaseScratch returns s to the pool. Do not use s afterwards.
func (x *Index) ReleaseScratch(s *Scratch) { x.scratch.Put(s) }

// begin opens a new query epoch: marks from previous queries expire in
// O(1), with a full O(window) reset only on the ~4-billion-query epoch
// wraparound.
func (s *Scratch) begin() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	for i := range s.bandCand {
		s.bandCand[i] = 0
	}
	s.cands = s.cands[:0]
}

// Marked reports whether window-local user u was returned as a candidate
// by this scratch's last Candidates call.
func (s *Scratch) Marked(u int32) bool { return s.stamp[u] == s.epoch }

// BandCandidates returns how many of band b's members were candidates in
// this scratch's last Candidates call — len(Band.IDs) minus this is the
// number of zero-overlap members a certified skip avoids visiting.
func (s *Scratch) BandCandidates(b int) int { return int(s.bandCand[b]) }

// NumUsers returns the window size the index covers.
func (x *Index) NumUsers() int { return x.n }

// Bands returns the degree bands (shared; treat as read-only). Every
// window-local user appears in exactly one band.
func (x *Index) Bands() []Band { return x.bands }

// Postings returns attribute a's posting list (shared; treat as
// read-only), empty when no user carries a.
func (x *Index) Postings(a int) []int32 {
	if a < 0 || a >= len(x.postings) {
		return nil
	}
	return x.postings[a]
}

// CandidatesUpTo returns the union of the posting lists of attrs — every
// window-local user sharing at least one attribute with the query set —
// marking each in s and counting them per band, unless the union exceeds
// limit: the gather then stops at the first candidate past it and returns
// limit+1 of them, with the marks and band counts covering only those. So
// a caller that only needs to know the union is large pays for the posting
// lists up to the limit, not for all of them. The returned slice is backed
// by s (valid until the scratch's next gather or its release) and is not
// sorted. Cost is O(visited posting lengths): no per-query pass over the
// window.
func (x *Index) CandidatesUpTo(attrs stylometry.AttrSet, s *Scratch, limit int) []int32 {
	s.begin()
	for _, a := range attrs.Idx {
		for _, u := range x.Postings(a) {
			if s.stamp[u] != s.epoch {
				s.stamp[u] = s.epoch
				s.bandCand[x.bandOf[u]]++
				s.cands = append(s.cands, u)
				if len(s.cands) > limit {
					return s.cands
				}
			}
		}
	}
	return s.cands
}

// Stats are the cumulative pruning counters of a query engine (one struct
// per shard world, aggregated across shards and queries). All fields are
// monotone counts; see shard.World.PruneStats for the read side. This is
// the one declaration of the block: the public PruneStats embeds it and
// /v1/stats marshals it as its "prune" object under these JSON keys.
type Stats struct {
	// Queries counts per-shard pruned-path invocations.
	Queries int64 `json:"queries"`
	// Fallbacks counts invocations that bailed to the full window scan
	// (no index, or a non-prune-safe similarity configuration).
	Fallbacks int64 `json:"fallbacks"`
	// DenseQueries counts invocations whose candidate set exceeded
	// MaxCandidateFrac of the window and were handed to the shard's full
	// scan. Their rows are counted under neither Candidates, Scanned nor
	// Skipped.
	DenseQueries int64 `json:"dense_queries"`
	// Candidates sums the candidate-set sizes of the invocations the
	// pruner answered itself (neither fallbacks nor hand-offs).
	Candidates int64 `json:"candidates"`
	// Scanned sums the band members exact-scored because their band's
	// bound could not certify skipping (plus candidate rescores are counted
	// under Candidates, not here).
	Scanned int64 `json:"scanned"`
	// Skipped sums the users never scored: their band's structural bound
	// proved they cannot enter the top-K.
	Skipped int64 `json:"skipped"`
	// BandsChecked counts band bounds compared against a full heap's K-th
	// score; BandsSkipped counts how many of those certified a skip. Their
	// ratio is the direct read on how tight the band bounds are.
	BandsChecked int64 `json:"bands_checked"`
	// BandsSkipped counts bound evaluations that certified skipping the
	// band's zero-overlap members.
	BandsSkipped int64 `json:"bands_skipped"`
}

// Snapshot returns an atomically read copy of the counters, safe to take
// while queries are updating them.
func (s *Stats) Snapshot() Stats {
	return Stats{
		Queries:      atomic.LoadInt64(&s.Queries),
		Fallbacks:    atomic.LoadInt64(&s.Fallbacks),
		DenseQueries: atomic.LoadInt64(&s.DenseQueries),
		Candidates:   atomic.LoadInt64(&s.Candidates),
		Scanned:      atomic.LoadInt64(&s.Scanned),
		Skipped:      atomic.LoadInt64(&s.Skipped),
		BandsChecked: atomic.LoadInt64(&s.BandsChecked),
		BandsSkipped: atomic.LoadInt64(&s.BandsSkipped),
	}
}
