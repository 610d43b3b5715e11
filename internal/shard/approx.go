// The approximate retrieval tier: max-score/WAND candidate generation
// with exact rescoring. TopKApprox reuses the shard's attribute inverted
// index, but instead of rescoring every attribute-overlap candidate it
// walks per-attribute posting cursors ordered by document id, each
// carrying an admissible score upper bound (similarity.AttrScoreBounds),
// plus a structural base bound covering what any user can score without
// attribute overlap. Posting ranges whose summed bounds cannot beat
// Theta times the running K-th score are skipped wholesale; every
// survivor is exact-rescored with the unchanged flat kernel
// (similarity.ScoreWith), so only candidate *generation* is approximate.
// At Theta <= 1 with an unbounded budget the skips are provably safe and
// the results are bit-identical to the exact engine; Theta > 1 or a
// finite budget trades recall for speed. This tier is explicitly outside
// the bit-identical parity contract (docs/ARCHITECTURE.md): it is the
// opt-in road to sublinear queries on dense real-text worlds where exact
// pruning floors at a full rescore.

package shard

import (
	"math"
	"sync/atomic"

	"dehealth/internal/index"
	"dehealth/internal/similarity"
)

// TopKApprox is the approximate counterpart of TopKPruned: same bounded
// worst-first heap, same exact ScoreWith rescoring, but candidates are
// generated by a max-score/WAND pivot walk that skips posting ranges
// provably (at Theta 1) or heuristically (Theta > 1) below the running
// threshold, and the zero-overlap band remainder is skipped under the
// same Theta-scaled bound. A finite ap.Budget caps the exact rescores
// and switches them to bound order: the Budget highest-bound survivors
// are pooled and rescored at the end, instead of spending the budget on
// the earliest document ids. st accumulates the tier's counters
// (atomically; pass the world's shared stats). Falls back to the exact
// full scan when the shard has no index or the configuration is not
// prune-safe.
func (sh *Shard) TopKApprox(u, k int, cfg index.Config, ap index.ApproxParams, st *index.ApproxStats) []Candidate {
	n := sh.NumUsers()
	if k > n {
		k = n
	}
	if k <= 0 {
		return []Candidate{}
	}
	ap = ap.WithDefaults()
	atomic.AddInt64(&st.Queries, 1)
	x := sh.Index
	if x == nil || !sh.Scorer.PruneSafe() {
		atomic.AddInt64(&st.Fallbacks, 1)
		return sh.TopK(u, k)
	}

	attrs := sh.Scorer.AnonAttrs(u)

	var prof similarity.QueryProfile
	sh.Scorer.PrepareQuery(u, &prof)

	// Structural base bound: the max over all bands of the zero-overlap
	// score bound. Taking the max (not the per-candidate band's bound)
	// keeps the cursor walk band-oblivious while staying admissible for
	// every document any cursor can produce.
	structMax := 0.0
	bands := x.Bands()
	for bi := range bands {
		if b := sh.Scorer.ScoreBoundBand(&prof, bandStats(&bands[bi])); b > structMax {
			structMax = b
		}
	}

	ubs := sh.Scorer.AttrScoreBounds(&prof, nil)
	cur := index.NewCursors(structMax)
	for i, a := range attrs.Idx {
		cur.Add(x.Postings(a), ubs[i])
	}
	atomic.AddInt64(&st.CursorsOpened, int64(cur.Len()))

	// Block-max check: hand the walk a memoized structural bound per
	// id-range block — evaluated once per block the walk actually probes,
	// so queries that skip most blocks never pay for their bounds.
	if bs := x.BlockSize(); bs > 0 {
		blocks := x.Blocks()
		bcache := make([]float64, len(blocks))
		for i := range bcache {
			bcache[i] = math.NaN()
		}
		cur.SetBlocks(bs, func(b int) float64 {
			if v := bcache[b]; !math.IsNaN(v) {
				return v
			}
			v := sh.Scorer.ScoreBoundBand(&prof, blockStats(&blocks[b]))
			bcache[b] = v
			return v
		})
	}

	h := make(candidateHeap, 0, k)
	var rescored int64
	exhausted := false
	rescore := func(j int32) {
		rescored++
		c := Candidate{User: sh.Lo + int(j), Score: sh.Scorer.ScoreWith(&prof, int(j))}
		if len(h) < k {
			h = append(h, c)
			h.up(len(h) - 1)
		} else if worse(h[0], c) {
			h[0] = c
			h.down(0)
		}
	}

	if ap.Budget > 0 {
		// Bound-ordered budget: instead of rescoring survivors in document
		// order until the budget runs out — which spends it on whatever low
		// ids come first — collect the Budget highest-bound survivors in a
		// bounded pending pool and exact-rescore only those at the end. The
		// pool is a min-heap on keep priority (bound desc, id asc), so its
		// root is both the next eviction and, once full, the walk's skip
		// bar: a document whose bound cannot beat Theta times the weakest
		// pooled bound can never enter. The bar only rises, satisfying
		// Next's monotone-theta contract.
		pool := make([]pending, 0, ap.Budget)
		bar := func() float64 {
			if len(pool) < ap.Budget {
				return math.Inf(-1)
			}
			return ap.Theta * pool[0].bound
		}
		offer := func(id int32, bound float64) {
			p := pending{id: id, bound: bound}
			if len(pool) < ap.Budget {
				pool = append(pool, p)
				poolUp(pool, len(pool)-1)
				return
			}
			exhausted = true // something is dropped: p or the root
			if pendingWorse(p, pool[0]) {
				return
			}
			pool[0] = p
			poolDown(pool, 0)
		}
		for {
			d, ok := cur.Next(bar())
			if !ok {
				break
			}
			offer(d, cur.CandidateBound())
		}
		atomic.AddInt64(&st.PostingsSkipped, cur.Skipped())

		// Zero-overlap remainder against the pool bar: a band at or below it
		// cannot contribute (ties at the pool floor resolve to the
		// already-pooled, lower-bound-heap candidates).
		sh.zeroOverlap(&prof, attrs, nil, func(bound float64) bool { return bound <= bar() }, offer)
		for _, p := range pool {
			rescore(p.id)
		}
	} else {
		// Unbounded budget: rescore survivors as they stream. threshold is
		// the walk's running skip bar: nothing is skipped until the heap
		// holds k candidates, then Theta times the K-th score. Under
		// PruneSafe all scores are non-negative, so Theta >= 1 keeps the
		// bar at or above the exact threshold.
		threshold := func() float64 {
			if len(h) < k {
				return math.Inf(-1)
			}
			return ap.Theta * h[0].Score
		}
		for {
			d, ok := cur.Next(threshold())
			if !ok {
				break
			}
			rescore(d)
		}
		atomic.AddInt64(&st.PostingsSkipped, cur.Skipped())

		// Zero-overlap remainder, exactly as TopKPruned but against the
		// Theta-scaled bar.
		sh.zeroOverlap(&prof, attrs, nil, func(bound float64) bool { return bound < threshold() }, func(j int32, _ float64) { rescore(j) })
	}
	atomic.AddInt64(&st.Rescored, rescored)
	atomic.AddInt64(&st.BlocksChecked, cur.BlocksChecked())
	atomic.AddInt64(&st.BlocksSkipped, cur.BlocksSkipped())
	atomic.AddInt64(&st.CursorsDemoted, cur.Demoted())
	if exhausted {
		atomic.AddInt64(&st.BudgetExhausted, 1)
	}

	out := []Candidate(h)
	sortCandidates(out)
	return out
}

// pending is one entry of the bound-ordered budget pool: a surviving
// candidate id and its admissible score upper bound.
type pending struct {
	id    int32
	bound float64
}

// pendingWorse ranks pool entries by keep priority — higher bound first,
// lower id on ties — so the pool's min-heap root is the entry a better
// candidate evicts, and evictions are deterministic.
func pendingWorse(a, b pending) bool {
	if a.bound != b.bound {
		return a.bound < b.bound
	}
	return a.id > b.id
}

func poolUp(h []pending, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !pendingWorse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func poolDown(h []pending, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && pendingWorse(h[l], h[small]) {
			small = l
		}
		if r < len(h) && pendingWorse(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// WithApprox returns a world over the same shards that accepts
// approximate queries (QueryUserApprox / QueryBatchApprox) through the
// max-score/WAND engine. Shard indexes are built (in parallel) when
// missing — the same structure candidate pruning uses, so a pruned world
// gains the approximate tier for free. st, when non-nil, is the shared
// stats block every approximate query accumulates into (pass one struct
// across all derived worlds); nil allocates a fresh one. The exact query
// path (QueryUser / QueryBatch) is untouched.
func (w *World) WithApprox(cfg index.Config, st *index.ApproxStats) *World {
	cfg = cfg.WithDefaults()
	if st == nil {
		st = &index.ApproxStats{}
	}
	out := w.withIndex(cfg)
	out.approx, out.astats = &cfg, st
	return out
}

// ApproxStats snapshots the world's cumulative approximate-tier counters
// (zero when the tier is off).
func (w *World) ApproxStats() index.ApproxStats {
	if w.astats == nil {
		return index.ApproxStats{}
	}
	return w.astats.Snapshot()
}

// QueryUserApprox is QueryUser through the approximate tier: the same
// fan-out, with each shard answered by TopKApprox under ap. On a world
// without the tier it degrades to the exact QueryUser result.
func (w *World) QueryUserApprox(u, k int, ap index.ApproxParams) []Candidate {
	return w.fanOut(u, k, queryMode{approx: true, ap: ap}, true)
}

// QueryBatchApprox answers one QueryUserApprox per entry of users over a
// bounded worker pool (workers <= 0 uses GOMAXPROCS). Like the pruned
// batch path, queries run one at a time per worker: WAND cursor walks
// gather per-query candidate sets the multi-query kernel cannot batch.
func (w *World) QueryBatchApprox(users []int, k, workers int, ap index.ApproxParams) [][]Candidate {
	return w.queryBatch(users, k, workers, queryMode{approx: true, ap: ap})
}
