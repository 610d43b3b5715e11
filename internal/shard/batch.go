// The shard scan: the only code that walks a whole auxiliary window. A
// served /internal/query hands the world the router's group of queries,
// the offline Top-K DA phase hands it strips of anonymized users, and a lone
// Shard.TopK is a batch of one — all three are one blocked loop (scan):
// prepare Q query profiles at once (similarity.BatchProfile), score each
// 32-row block against every query while it is hot in cache
// (ScoreRangeAbove — this is its one production call site), and drain Q
// bounded heaps. When only the heaps read the scores, each query's floor —
// its full heap's k-th score, raised by the k-th scores its other shards
// have already published when fanOut shares a floorCell — goes down to the
// kernel before every block, and rows the kernel can prove below it cost a
// popcount instead of a merge (see scan).
// Scanning queries one by one would stream each shard's flat aux-side
// caches through memory once per query; the batch also amortizes the
// per-query preparation (dense attribute tables, presence bitsets) the
// batched kernel depends on.
//
// Exactness is a set argument, not a replay of heap states: every row the
// scan rejects — answered with a bound or dropped at the drain — is
// strictly below the k-th score of some set of k real candidates of the
// same query (this heap's, or a sibling shard's that published it), so it
// is strictly below the query's global k-th score and cannot be in the
// global top-k; every row that reaches a heap carries its exact score, and
// the heap and the final sort order candidates under the global selection
// order, ties by id. So a shard's list holds every global top-k candidate
// of its window, and MergeTopK recovers the same top-k whatever the batch,
// the interleaving of the shards or the floor's staleness. The per-batch
// scratch (profiles, block buffers, heaps, floors) is pooled across calls —
// and therefore across served requests — so a steady-state scan allocates
// only its result slices.

package shard

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dehealth/internal/similarity"
)

// maxBatchQ caps how many queries one served kernel pass scores
// together. A served group (the width of a router /v1/batch) maps onto
// kernel batches of up to this width; wider batches would grow the per-batch
// scratch (Q dense attribute tables + Q block buffers) past what stays
// cache-resident, past the point where the blocked scan's reuse pays.
const maxBatchQ = 64

// batchScratch is the pooled per-call state of the scan: the prepared
// batch profile, the flat Q × scoreBlock score buffer with its per-query
// row views, the Q bounded heaps and their Q floors. Pooling it makes
// steady-state batched queries allocation-free up to their result slices.
type batchScratch struct {
	prof   similarity.BatchProfile
	buf    []float64
	out    [][]float64
	heaps  []candidateHeap
	floors []float64
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// floorCell is one query's floor shared by the shards of a fanOut: an
// atomic float64 max over the k-th scores the shards' full heaps have
// published, -Inf until the first. Safe for concurrent shards.
type floorCell struct{ bits atomic.Uint64 }

// newFloorCells returns n cells at -Inf, one per query of a batch.
func newFloorCells(n int) []floorCell {
	cells := make([]floorCell, n)
	for i := range cells {
		cells[i].bits.Store(math.Float64bits(math.Inf(-1)))
	}
	return cells
}

// raise lifts the cell to at least v and returns its value afterwards;
// raise(-Inf) only reads it.
func (c *floorCell) raise(v float64) float64 {
	for {
		old := c.bits.Load()
		if cur := math.Float64frombits(old); cur >= v {
			return cur
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return v
		}
	}
}

// grow sizes the scratch for a Q-query batch, reusing capacity.
func (sc *batchScratch) grow(q, k int) {
	if cap(sc.buf) < q*scoreBlock {
		sc.buf = make([]float64, q*scoreBlock)
	}
	sc.buf = sc.buf[:q*scoreBlock]
	if cap(sc.out) < q {
		sc.out = make([][]float64, q)
	}
	sc.out = sc.out[:q]
	if cap(sc.heaps) < q {
		sc.heaps = make([]candidateHeap, q)
	}
	sc.heaps = sc.heaps[:q]
	if cap(sc.floors) < q {
		sc.floors = make([]float64, q)
	}
	sc.floors = sc.floors[:q]
	for i := range sc.heaps {
		if cap(sc.heaps[i]) < k {
			sc.heaps[i] = make(candidateHeap, 0, k)
		}
		sc.heaps[i] = sc.heaps[i][:0]
		sc.floors[i] = math.Inf(-1)
	}
}

// scan is the one loop that walks a whole auxiliary window (see the file
// comment). res[q] receives users[q]'s k best candidates with global
// auxiliary ids, sorted under the global selection order; k is clamped to
// the window size, and a k below one scans nothing. observe, when non-nil,
// is handed every scored block before the heaps consume it —
// observe(q, lo, scores) carries users[q]'s scores of global rows lo,
// lo+1, … in ascending block order, valid only during the call — and is
// checked once per block, never per row.
//
// Without an observer only the heaps read the scores, so the scan is
// threshold-aware: before each block it hands the kernel a floor per query
// — the full heap's k-th score — and the kernel answers a row it can prove
// strictly below the floor with the proof (an upper bound, still below the
// floor) instead of the score. The drain drops every value strictly below
// the block's floor, bound or score; ties are kept, because they break by
// id. scan returns how many (query, row) pairs the kernel answered with a
// bound. cells, when non-nil, aligns with users and shares each query's
// floor with its other shards (fanOut): at every block boundary a full
// heap publishes its root to the cell, and the floor is the cell's value.
// A shard whose k was clamped to its own size neither publishes nor reads
// the cell: its root is not the k-th of k real candidates, and its few rows
// are scanned whole. Either way every rejected row is strictly below the
// k-th score of some k real candidates of the query (the file comment's
// exactness argument). With an observer no floor is set, cells are ignored
// and every row is scored and kept.
func (sh *Shard) scan(users []int, k int, cells []floorCell, observe func(q, lo int, scores []float64), res [][]Candidate) (skipped int) {
	n := sh.NumUsers()
	if k > n || observe != nil {
		cells = nil
	}
	k = min(k, n)
	if k <= 0 {
		for q := range res {
			res[q] = []Candidate{}
		}
		return 0
	}
	sc := batchScratchPool.Get().(*batchScratch)
	sc.grow(len(users), k)
	sh.Scorer.PrepareBatch(users, &sc.prof)
	heaps := sc.heaps
	var floors []float64 // stays nil under an observer: whole exact rows
	if observe == nil {
		floors = sc.floors
	}
	for lo := 0; lo < n; lo += scoreBlock {
		hi := min(lo+scoreBlock, n)
		for q := range sc.out {
			sc.out[q] = sc.buf[q*scoreBlock : q*scoreBlock+(hi-lo)]
		}
		for q := range floors {
			if len(heaps[q]) == k {
				floors[q] = heaps[q][0].Score
			}
			if cells != nil {
				floors[q] = cells[q].raise(floors[q])
			}
		}
		skipped += sh.Scorer.ScoreRangeAbove(&sc.prof, lo, hi, floors, sc.out)
		if observe != nil {
			for q, scores := range sc.out {
				observe(q, sh.Lo+lo, scores)
			}
		}
		for q := range heaps {
			h := heaps[q]
			floor := math.Inf(-1)
			if floors != nil {
				floor = floors[q]
			}
			for i, score := range sc.out[q] {
				if score < floor {
					continue // a bound, or a score the floor already rules out
				}
				c := Candidate{User: sh.Lo + lo + i, Score: score}
				if len(h) < k {
					h = append(h, c)
					h.up(len(h) - 1)
				} else if worse(h[0], c) {
					h[0] = c
					h.down(0)
				}
			}
			heaps[q] = h
		}
	}
	for q := range cells {
		if len(heaps[q]) == k {
			cells[q].raise(heaps[q][0].Score) // the last block's gains, for shards still to start
		}
	}
	for q := range heaps {
		out := make([]Candidate, len(heaps[q]))
		copy(out, heaps[q])
		sortCandidates(out)
		res[q] = out
	}
	batchScratchPool.Put(sc)
	return skipped
}

// TopKBatch answers a whole batch of anonymized users from one blocked
// scan of the shard (see scan). Results align with users by index; each
// entry is bit-identical to TopK(users[q], k).
func (sh *Shard) TopKBatch(users []int, k int) [][]Candidate {
	res := make([][]Candidate, len(users))
	sh.scan(users, k, nil, nil, res)
	return res
}

// ParallelFor calls fn(0) … fn(n-1) on at most workers goroutines — the
// caller is one of them, so one worker spawns nothing — each taking the
// next index off a shared counter.
func ParallelFor(n, workers int, fn func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for h := 1; h < min(workers, n); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}

// queryBatchFanOut answers a whole batch through the batched shard scan:
// users are cut into contiguous chunks of at most maxBatchQ (balanced
// across the worker budget), and every (chunk, shard) cell is one
// TopKBatch scheduled over the workers, so a batch narrower than the
// worker budget still scans its shards in parallel. The per-shard lists
// are merged per user once every cell is in. The across-query cache reuse
// lives inside the scan; workers only decide which cells run side by
// side, so results are identical at every worker count.
func (w *World) queryBatchFanOut(users []int, k, workers int, out [][]Candidate) {
	chunk := min(max((len(users)+workers-1)/workers, 1), maxBatchQ)
	ns := len(w.shards)
	cells := make([][][]Candidate, (len(users)+chunk-1)/chunk*ns)
	ParallelFor(len(cells), workers, func(i int) {
		lo := i / ns * chunk
		cells[i] = w.shards[i%ns].TopKBatch(users[lo:min(lo+chunk, len(users))], k)
	})
	parts := make([][]Candidate, ns)
	for qi := range users {
		if ns == 1 {
			out[qi] = cells[qi/chunk][qi%chunk]
			continue
		}
		for si := range parts {
			parts[si] = cells[qi/chunk*ns+si][qi%chunk]
		}
		out[qi] = MergeTopK(parts, k)
	}
}

// ScanBatch is the scan for callers that need more of a row than its
// top-k — the offline Top-K DA phase (internal/core). It runs users
// through every shard in turn on the calling goroutine, always by the full
// scan (the pruner skips rows), so observe (see Shard.scan) sees
// users[q]'s whole similarity row exactly once, in ascending global row
// order; callers parallelize across calls, so one call's observations
// never race. It returns each user's global top-k as QueryBatch would:
// folding the shards' lists in pairwise is as exact as merging them at
// once, since every global top-k candidate survives its own shard's top-k.
func (w *World) ScanBatch(users []int, k int, observe func(q, lo int, scores []float64)) [][]Candidate {
	out := make([][]Candidate, len(users))
	w.shards[0].scan(users, k, nil, observe, out)
	part := make([][]Candidate, len(users))
	for _, sh := range w.shards[1:] {
		sh.scan(users, k, nil, observe, part)
		for q := range out {
			out[q] = MergeTopK([][]Candidate{out[q], part[q]}, k)
		}
	}
	return out
}

// QueryBatch answers one QueryUser per entry of users (workers <= 0 uses
// GOMAXPROCS). Results align with users by index and are bit-identical to
// len(users) independent QueryUser calls. An unpruned world routes the
// batch through the multi-query blocked kernel — each shard is walked once
// per chunk of up to maxBatchQ queries instead of once per query. The
// pruner gathers per-query candidate sets, which that kernel cannot batch,
// so a pruned world runs one query at a time over the workers, each
// scanning its shards inline; when a single worker is left to run the
// batch, each query fans out across shards itself.
func (w *World) QueryBatch(users []int, k, workers int) [][]Candidate {
	out := make([][]Candidate, len(users))
	if len(users) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if w.prune == nil {
		w.queryBatchFanOut(users, k, workers, out)
		return out
	}
	helpers := min(workers, len(users)) <= 1
	ParallelFor(len(users), workers, func(i int) { out[i] = w.fanOut(users[i], k, helpers) })
	return out
}
