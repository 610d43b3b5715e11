// Package shard partitions the auxiliary side of a prepared De-Health
// world into contiguous shards and serves partition-parallel top-K scoring
// over them — the architecture that keeps the O(|aux|) single-row query
// hot path scaling with cores as the auxiliary population grows toward the
// millions-of-users regime.
//
// A World cuts the global auxiliary id space [0, |aux|) into n contiguous
// ranges. Each Shard is a similarity.Scorer window over its range — the
// window's aux-side caches are contiguous slice views of the base scorer's
// globally computed arrays, so nothing is copied — plus, once pruning is
// enabled, the range's inverted index. Because every shard scores against
// global values (global landmarks, global degrees), the union of per-shard
// bounded top-K heaps merged under the global selection order (score
// descending, global id ascending) is bit-identical to the unsharded
// single-row path; the merge is exact because any global top-K candidate
// is necessarily inside its own shard's top-K.
//
// Mutation discipline: shards are immutable after partitioning. The
// anonymized side grows through the base scorer family's shared caches
// (similarity.SyncAnon), so the serving layer's discipline — ingest
// exclusive, queries shared — carries over unchanged: a World adds
// readers, never writers.
package shard

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"

	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/similarity"
)

// Candidate pairs a global auxiliary user id with its similarity score.
type Candidate struct {
	User  int
	Score float64
}

// worse is the heap order of the bounded top-K heap (worst candidate at
// the root): the exact inverse of the global selection order (see
// sortCandidates).
func worse(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.User > b.User
}

// Shard is one partition of the auxiliary world: the contiguous global id
// range [Lo, Hi), a scorer window whose aux-side caches cover exactly this
// range, and an optional index over the same window.
type Shard struct {
	// Lo and Hi bound the shard's global auxiliary id range [Lo, Hi).
	Lo, Hi int
	// Scorer scores anonymized users against the shard's aux window
	// (local index j = global user Lo+j). For a single-shard world it is
	// the base scorer.
	Scorer *similarity.Scorer
	// Index is the shard's attribute inverted index plus degree bands over
	// the same window, backing the candidate pruner (TopKPruned). Nil until
	// the world enables pruning (WithPruning); the aux side is immutable,
	// so a built index never goes stale.
	Index *index.Index
}

// NumUsers returns the shard's auxiliary population.
func (sh *Shard) NumUsers() int { return sh.Hi - sh.Lo }

// scoreBlock is the row-kernel block size of the shard scan: one
// ScoreRangeAbove call fills a pooled buffer of this many scores per query
// before the heaps consume them, so the scorer streams the flat aux-side
// arrays sequentially and the scan performs zero per-row heap allocations.
// It is also how often a query's floor catches up with its heap: the first
// k rows are scored whole, and every later block runs on a floor at most
// scoreBlock-1 rows stale. Swept on BenchmarkShardScan's dense world
// (2-core Xeon VM, go1.24, three runs each):
//
//	block size           8      16     32     64     128    512
//	skipped/row          0.959  0.958  0.953  0.942  0.913  0.733
//	ns/pair, width 1     45–60  49–55  50–52  47–57  50–54  84–89
//	ns/pair, width 8     37–44  36–46  36–42  41–43  40–45  69–74
//
// From 8 to 128 the timings overlap; 32 keeps all but 0.6% of the
// smallest block's skip share at a quarter of its kernel calls. Scans
// with an observer set no floors and measured the same at 32 and 512 at
// widths 1, 8 and 64, so both kinds share the one stride.
const scoreBlock = 32

// topK is TopKBatch at width one for anonymized user u, sharing u's floor
// with the query's other shards through cells (one cell; nil shares
// nothing). Its list may then omit rows another shard has already
// outranked k times over, but never a global top-k one.
func (sh *Shard) topK(u, k int, cells []floorCell) []Candidate {
	users, res := [1]int{u}, [1][]Candidate{}
	sh.scan(users[:], k, cells, nil, res[:])
	return res[0]
}

// sortCandidates orders candidates under the global selection order —
// higher score first, ties to the smaller global id — without allocating.
func sortCandidates(cs []Candidate) {
	slices.SortFunc(cs, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.User, b.User))
	})
}

// World is the shard router: the auxiliary world cut into contiguous
// partitions sharing one flat feature matrix and one family of similarity
// caches. A World is immutable and safe for concurrent queries; growth of
// the anonymized side flows through the underlying scorer family's
// SyncAnon, which the caller serializes against queries exactly as for an
// unsharded scorer.
type World struct {
	shards []*Shard
	// scanTokens bounds the helper goroutines that all concurrent
	// batches on this world (and every derived view — the channel is
	// shared) may have in flight at once, at GOMAXPROCS-1. A lone batch
	// spreads its cells across all cores; when concurrent callers already
	// saturate the CPUs the tokens run dry and each batch covers its cells
	// inline instead of stacking goroutines on the scheduler.
	scanTokens chan struct{}
	// prune, when non-nil, routes every query through the candidate-pruned
	// engine under this configuration (see prune.go); pstats is the shared
	// counter block those queries accumulate into.
	prune  *index.Config
	pstats *index.Stats
}

// Bounds returns the n+1 partition offsets that cut total users into n
// contiguous ranges of near-equal size (shard i spans [Bounds[i],
// Bounds[i+1])). n is clamped to [1, total] (with a floor of one shard for
// an empty world), so requesting more shards than users degrades gracefully
// instead of minting empty shards.
func Bounds(total, n int) []int {
	if n > total {
		n = total
	}
	if n < 1 {
		n = 1
	}
	b := make([]int, n+1)
	for i := 1; i <= n; i++ {
		b[i] = i * total / n
	}
	return b
}

// New partitions the auxiliary world behind base into n contiguous shards
// (n is clamped as Bounds documents). auxUDA is the full auxiliary UDA the
// base scorer was built over; it only sizes the world. auxStore is ignored
// (the benchmark still passes one). One shard wraps the base scorer
// directly — the unsharded engine is literally the single-shard world,
// which is what the sharded/unsharded parity tests pin.
func New(base *similarity.Scorer, auxUDA *graph.UDA, auxStore *features.Store, n int) *World {
	total := auxUDA.NumNodes()
	if base.AuxUsers() != total {
		panic(fmt.Sprintf("shard: scorer covers %d aux users, graph has %d", base.AuxUsers(), total))
	}
	bounds := Bounds(total, n)
	w := &World{shards: make([]*Shard, len(bounds)-1), scanTokens: newScanTokens()}
	for i := range w.shards {
		w.shards[i] = &Shard{Lo: bounds[i], Hi: bounds[i+1]}
	}
	return w.WithScorer(base)
}

// WithScorer re-derives every shard's scorer window from a re-weighted
// base scorer, reusing the partition bounds and inverted indexes —
// attribute postings do not depend on the similarity configuration, so
// re-configuring a sharded world costs O(shards) slice headers. A pruned
// world stays pruned, still accumulating into the same shared stats.
func (w *World) WithScorer(base *similarity.Scorer) *World {
	out := w.view()
	for _, sh := range out.shards {
		sh.Scorer = base
		if len(out.shards) > 1 {
			sh.Scorer = base.Shard(sh.Lo, sh.Hi)
		}
	}
	return out
}

// view copies the world header and every shard header — engines, stats,
// token budget and indexes all carried over — so
// a derived world can re-point its copy's scorers, indexes or engines
// without touching w.
func (w *World) view() *World {
	out := *w
	out.shards = make([]*Shard, len(w.shards))
	for i, sh := range w.shards {
		ns := *sh
		out.shards[i] = &ns
	}
	return &out
}

// N returns the shard count.
func (w *World) N() int { return len(w.shards) }

// Shards returns the shards in global id order (shared; treat as
// read-only).
func (w *World) Shards() []*Shard { return w.shards }

// AuxUsers returns the total auxiliary population across shards.
func (w *World) AuxUsers() int { return w.shards[len(w.shards)-1].Hi }

// newScanTokens builds the world's helper-goroutine budget: GOMAXPROCS-1
// tokens (a single-core machine gets none and every batch runs inline).
func newScanTokens() chan struct{} {
	n := runtime.GOMAXPROCS(0) - 1
	if n < 0 {
		n = 0
	}
	t := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		t <- struct{}{}
	}
	return t
}

// MergeTopK merges per-shard top-k lists into the global top-k under the
// global selection order (score descending, id ascending). Exact: every
// global top-k candidate appears in its own shard's top-k, so sorting the
// union and truncating loses nothing. Exported as the single merge-order
// source for out-of-process scatter-gather: the distributed router merges
// shard-server replies through this exact function, which is what makes
// its results bit-identical to the in-process QueryBatch.
func MergeTopK(parts [][]Candidate, k int) []Candidate {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	all := make([]Candidate, 0, total)
	for _, p := range parts {
		all = append(all, p...)
	}
	sortCandidates(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k:k]
}

// RouteName hashes an (anonymized) account name to a home shard in
// [0, n): a stable FNV-1a hash, independent of process, ingestion order
// and world rebuilds, so re-preparing the same world routes the same
// accounts to the same shards. The assignment feeds per-shard accounting
// (stats) and keeps ingest routing deterministic; the ingested data itself
// lands in the single anonymized store, whose one writer is Ingest.
func RouteName(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int(h.Sum64() % uint64(n))
}

// candidateHeap is a worst-first binary heap of candidates, the bounded
// top-K accumulator of the shard scan and the pruner's gather.
type candidateHeap []Candidate

func (h candidateHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h candidateHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && worse(h[l], h[small]) {
			small = l
		}
		if r < len(h) && worse(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}
