// Max-score/WAND document-at-a-time traversal over the attribute posting
// lists — the candidate-generation half of the approximate retrieval tier
// (shard.TopKApprox). Each query attribute opens a cursor over its posting
// list carrying an admissible upper bound on the attribute's score
// contribution (similarity.AttrScoreBounds); a shared base bound covers
// the structural terms every auxiliary user can contribute regardless of
// attribute overlap. The pivot walk enumerates candidate ids in strictly
// ascending order and skips whole posting ranges whose summed bounds
// cannot beat the caller's running threshold: a document can only be
// skipped when every cursor positioned at or before it belongs to a
// bound-sum prefix that fails the threshold, so under an exact threshold
// (theta = the K-th score) the skip is provably safe and the walk
// degenerates to the exact engine. Survivors are exact-rescored by the
// caller with the unchanged flat kernel — only generation is approximate.
//
// Two refinements raise the walk's skip granularity beyond the single
// global base bound (the Block-Max WAND adaptation; see
// docs/ARCHITECTURE.md):
//
//   - Block-max check. The per-attribute bounds are constant per query, so
//     the only document-varying part of a bound sum is the structural base.
//     With SetBlocks installed, a pivot that would be returned is first
//     re-checked against its id-range block's structural bound (tighter
//     than the global max whenever the block's degree/norm ranges exclude
//     the query's best case); if even the block bound plus the bounds of
//     every cursor positioned on the pivot fails theta, the walk skips the
//     whole id range up to the next block boundary or the next cursor
//     document, whichever is closer — without touching entries.
//
//   - Essential-list demotion. When theta has risen far enough that the
//     structural base plus a cursor's own bound cannot reach it, any
//     document covered only by that cursor (and previously demoted ones)
//     is provably below threshold. The cursor is demoted out of the walk
//     order: it no longer participates in the sort/pivot/seek machinery
//     (its bound joins the pivot seed as an admissible overcount), but it
//     keeps its posting position and is probed — a galloping membership
//     seek, largest bound first — whenever a candidate is about to be
//     emitted. The probe stops early once even full membership of the
//     remaining demoted mass cannot reach theta (the candidate is then
//     provably below threshold); a completed probe leaves the emitted
//     document's bound sum exact. With skewed bound mass this shrinks the
//     per-iteration walk to the few essential high-bound lists while
//     non-essential lists are touched only at candidate docs.
//
// Both refinements only ever skip documents whose admissible bound is at
// most theta, so the theta=1/unbounded-budget bit-identity argument is
// unchanged. Demotion assumes theta never decreases across calls — true
// for every caller, whose theta is a running K-th score or a running
// pending-pool bound, both monotone.
package index

import (
	"math"
	"sync/atomic"
)

// ApproxParams are the per-call knobs of the approximate query tier.
// The zero value resolves to the conservative configuration (Theta 1,
// unbounded budget), which — combined with admissible bounds — returns
// results bit-identical to the exact path.
type ApproxParams struct {
	// Theta scales the skip threshold: posting ranges and bands whose
	// score upper bound falls below Theta times the running K-th score are
	// skipped. <= 0 resolves to 1.0 (exact); values above 1 skip more
	// aggressively and trade recall for speed.
	Theta float64
	// Budget caps how many candidates a shard query may exact-rescore;
	// <= 0 is unbounded. A finite budget switches the walk to
	// bound-ordered rescoring: the Budget highest-bound survivors are kept
	// in a pending pool and exact-rescored at the end, so the budget is
	// spent on the candidates most likely to matter instead of the
	// earliest document ids.
	Budget int
}

// WithDefaults resolves zero fields to the conservative configuration.
func (p ApproxParams) WithDefaults() ApproxParams {
	if p.Theta <= 0 {
		p.Theta = 1.0
	}
	if p.Budget < 0 {
		p.Budget = 0
	}
	return p
}

// ApproxStats are the cumulative counters of the approximate query tier
// (one struct per shard world, shared across derived pipelines exactly
// like Stats). All fields are monotone counts updated atomically. Like
// Stats it is declared once: the public ApproxStats embeds it, /v1/stats
// marshals it as its "approx" object and the router sums it across shards.
type ApproxStats struct {
	// Queries counts per-shard approximate-path invocations.
	Queries int64 `json:"queries"`
	// Fallbacks counts invocations that bailed to the exact full scan
	// (no index, or a non-prune-safe similarity configuration).
	Fallbacks int64 `json:"fallbacks"`
	// CursorsOpened sums posting cursors opened (one per query attribute
	// with a non-empty posting list).
	CursorsOpened int64 `json:"cursors_opened"`
	// PostingsSkipped sums posting entries the pivot walk passed over
	// without rescoring — the tier's direct read on sublinearity.
	PostingsSkipped int64 `json:"postings_skipped"`
	// Rescored sums the survivors exact-rescored by the flat kernel.
	Rescored int64 `json:"rescored"`
	// BudgetExhausted counts shard queries whose finite
	// ApproxParams.Budget dropped at least one surviving candidate from
	// the bound-ordered pending pool.
	BudgetExhausted int64 `json:"budget_exhausted"`
	// BlocksChecked counts block-max evaluations: pivots re-checked
	// against their id-range block's structural bound before being
	// returned as candidates.
	BlocksChecked int64 `json:"blocks_checked"`
	// BlocksSkipped counts block-max evaluations that certified skipping
	// the pivot's whole id range — the direct read on how much tighter the
	// per-block bounds are than the global base.
	BlocksSkipped int64 `json:"blocks_skipped"`
	// CursorsDemoted counts posting cursors folded out of walks as
	// non-essential: the running threshold rose beyond what the base plus
	// the cursor's own bound could reach.
	CursorsDemoted int64 `json:"cursors_demoted"`
}

// Snapshot returns an atomically read copy of the counters, safe to take
// while queries are updating them.
func (s *ApproxStats) Snapshot() ApproxStats {
	return ApproxStats{
		Queries:         atomic.LoadInt64(&s.Queries),
		Fallbacks:       atomic.LoadInt64(&s.Fallbacks),
		CursorsOpened:   atomic.LoadInt64(&s.CursorsOpened),
		PostingsSkipped: atomic.LoadInt64(&s.PostingsSkipped),
		Rescored:        atomic.LoadInt64(&s.Rescored),
		BudgetExhausted: atomic.LoadInt64(&s.BudgetExhausted),
		BlocksChecked:   atomic.LoadInt64(&s.BlocksChecked),
		BlocksSkipped:   atomic.LoadInt64(&s.BlocksSkipped),
		CursorsDemoted:  atomic.LoadInt64(&s.CursorsDemoted),
	}
}

// exhaustedDoc is the current-doc sentinel of a drained cursor. Posting
// ids are shard-local user indices, always < MaxInt32, so the sentinel
// sorts every exhausted cursor past every live one and the walk trims
// them off the tail instead of compacting the slice each iteration.
const exhaustedDoc = math.MaxInt32

// Cursors is the document-at-a-time pivot walk over a set of posting
// cursors. base is an upper bound on the score any document can reach
// through non-attribute (structural) terms alone; it seeds every bound
// sum, so the walk never skips a document the structural terms could
// carry past the threshold on their own. Owned by one goroutine.
//
// The per-cursor state is struct-of-arrays: posting slices, positions,
// and bounds live in parallel arrays indexed by cursor id, while the
// walk order is a separate slice of (currentDoc<<32)|id keys. The inner
// loops — the near-sorted insertion sort, the pivot scan, the laggard
// seeks — then compare and swap plain int64s in registers, with no
// pointer-carrying struct copies (and so no GC write barriers) on the
// hot path.
type Cursors struct {
	posts   [][]int32 // posting list per cursor id (shared, never written)
	pos     []int32   // current position per cursor id
	ubs     []float64 // admissible score upper bound per cursor id
	ord     []int64   // walk order: (doc << 32) | id, ascending
	base    float64   // structural base bound (immutable after NewCursors)
	demoted float64   // summed bounds of demoted cursors (pivot-seed overcount)
	last    int32     // last returned doc; cursors positioned on it advance next call
	skipped int64

	lastBound float64 // admissible bound sum of the last returned doc

	// Block-max state (SetBlocks): bbound(b) is an admissible structural
	// bound over window-local ids [b*bsize, (b+1)*bsize). Consecutive
	// pivots overwhelmingly share a block, so the last lookup is memoized
	// inline (memoBlk/memoBB) before reaching for the callback.
	bsize   int
	bbound  func(int) float64
	memoBlk int
	memoBB  float64

	// Essential-list demotion state: demoted cursors leave the walk order
	// but keep their posting positions — they are probed (galloping) at
	// candidate docs so emitted bound sums stay exact. The per-cursor state
	// moves into the dem* parallel arrays, sorted by bound descending, so
	// the probe streams sequential memory; demSuffix[i] holds the summed
	// bounds from i on (demSuffix[0] == demoted), letting the probe stop as
	// soon as even full membership of the remaining mass cannot reach
	// theta. Folds become possible exactly when theta exceeds demoteBar =
	// base + demoted + min live cursor bound.
	demoteBar float64
	demPosts  [][]int32
	demPos    []int32
	demUbs    []float64
	demSuffix []float64
	probeHits []int // scratch: dem indices sitting on the candidate

	// Per-block demoted-mass accumulator, active when blocks are installed:
	// the first pivot landing in a block merges every demoted list's
	// entries inside the block's id range into dense per-doc mass/count
	// arrays (one sequential pass per list), so the per-candidate probe is
	// a single array read instead of a per-list merge. Entries are
	// provisionally counted skipped as they are accumulated; emission
	// consumes the emitted doc's count back.
	demBlk   int // block currently accumulated; -1 before the first
	demMass  []float64
	demCount []int32

	blocksChecked int64
	blocksSkipped int64
	cursorsCut    int64
}

// key packs a cursor's current document and id into its walk-order
// entry; int64 ordering is then (doc, id) ordering because both halves
// are non-negative.
func key(doc int32, id int) int64 { return int64(doc)<<32 | int64(id) }

// NewCursors returns an empty cursor set with the given structural base
// bound.
func NewCursors(base float64) *Cursors {
	return &Cursors{base: base, last: -1, demoteBar: math.Inf(-1), memoBlk: -1, demBlk: -1}
}

// Add opens a cursor over post (ascending document ids, shared — never
// written) with score upper bound ub. Empty lists are dropped.
func (c *Cursors) Add(post []int32, ub float64) {
	if len(post) == 0 {
		return
	}
	id := len(c.posts)
	c.posts = append(c.posts, post)
	c.pos = append(c.pos, 0)
	c.ubs = append(c.ubs, ub)
	// Keep ord sorted as cursors are added: Next's incremental reordering
	// only re-inserts entries it moved, so it relies on the slice being
	// sorted from the very first call.
	c.ord = append(c.ord, key(post[0], id))
	for j := len(c.ord) - 1; j > 0 && c.ord[j] < c.ord[j-1]; j-- {
		c.ord[j], c.ord[j-1] = c.ord[j-1], c.ord[j]
	}
	c.demoteBar = math.Inf(-1) // a new cursor may be the next demotion
}

// SetBlocks installs the two-level block-max check: bound(b) must return
// an admissible upper bound on the structural (zero-attribute-overlap)
// score of every document in [b*size, (b+1)*size) — typically a memoized
// ScoreBoundBand over the index's id-range Blocks. size <= 0 disables the
// check. The callback is evaluated lazily, once per touched block when
// the caller memoizes.
func (c *Cursors) SetBlocks(size int, bound func(int) float64) {
	if size <= 0 || bound == nil {
		c.bsize, c.bbound = 0, nil
		return
	}
	c.bsize, c.bbound = size, bound
	c.memoBlk = -1
}

// Len returns the number of live cursors.
func (c *Cursors) Len() int { return len(c.ord) }

// Skipped returns the cumulative posting entries passed over without
// being returned — documents whose bound-sum prefix failed the threshold.
func (c *Cursors) Skipped() int64 { return c.skipped }

// BlocksChecked returns how many pivots were re-checked against their
// id-range block bound; BlocksSkipped of those certified a range skip.
func (c *Cursors) BlocksChecked() int64 { return c.blocksChecked }

// BlocksSkipped returns how many block-max checks certified skipping the
// pivot's whole id range.
func (c *Cursors) BlocksSkipped() int64 { return c.blocksSkipped }

// Demoted returns how many cursors were folded out of the walk as
// non-essential.
func (c *Cursors) Demoted() int64 { return c.cursorsCut }

// CandidateBound returns the admissible score upper bound of the last
// document Next returned: the block (or global, whichever is tighter)
// structural bound plus the bounds of every cursor — live or demoted —
// actually positioned on the document. The bound-ordered budget rescore
// keys its pending pool on it.
func (c *Cursors) CandidateBound() float64 { return c.lastBound }

// flushDemoted charges the remaining postings of every demoted cursor to
// the skipped counter when the walk ends: those entries were passed over
// by demotion without being individually touched. Idempotent.
func (c *Cursors) flushDemoted() {
	for i := range c.demPosts {
		c.skipped += int64(len(c.demPosts[i])) - int64(c.demPos[i])
		c.demPos[i] = int32(len(c.demPosts[i]))
	}
}

// enterDemBlock accumulates the demoted lists' entries inside block blk
// into the demMass/demCount arrays: one sequential pass per list, after
// which probing any document in the block is a single array read. Every
// accumulated entry is provisionally counted skipped (emission consumes
// the emitted doc's count back), and entries left behind in blocks the
// walk passed without entering belong to documents that were never
// emitted, so they are skipped outright. Each list's position ends past
// the block, keeping the accounting disjoint from flushDemoted.
func (c *Cursors) enterDemBlock(blk int) {
	if cap(c.demMass) < c.bsize {
		c.demMass = make([]float64, c.bsize)
		c.demCount = make([]int32, c.bsize)
	}
	c.demMass = c.demMass[:c.bsize]
	c.demCount = c.demCount[:c.bsize]
	for j := range c.demMass {
		c.demMass[j] = 0
		c.demCount[j] = 0
	}
	start := int32(blk * c.bsize)
	end := start + int32(c.bsize)
	for i := range c.demPosts {
		post := c.demPosts[i]
		p := int(c.demPos[i])
		for p < len(post) && post[p] < start {
			p++
			c.skipped++
		}
		ub := c.demUbs[i]
		for p < len(post) && post[p] < end {
			j := post[p] - start
			c.demMass[j] += ub
			c.demCount[j]++
			c.skipped++
			p++
		}
		c.demPos[i] = int32(p)
	}
	c.demBlk = blk
}

// mergeDemotedIntoBlock folds a just-demoted cursor (dem index i) into
// the currently accumulated block, so a demotion happening mid-block
// keeps the accumulator exact. The cursor's position is past the last
// returned document, so every merged entry lies at a future doc.
func (c *Cursors) mergeDemotedIntoBlock(i int) {
	if c.demBlk < 0 {
		return
	}
	start := int32(c.demBlk * c.bsize)
	end := start + int32(c.bsize)
	post := c.demPosts[i]
	p := int(c.demPos[i])
	for p < len(post) && post[p] < start {
		p++
		c.skipped++
	}
	ub := c.demUbs[i]
	for p < len(post) && post[p] < end {
		j := post[p] - start
		c.demMass[j] += ub
		c.demCount[j]++
		c.skipped++
		p++
	}
	c.demPos[i] = int32(p)
}

// insertDemoted moves a cursor's state into the demoted parallel arrays,
// keeping them sorted by bound descending, and rebuilds the suffix sums.
// Demotions are rare (at most once per cursor per walk), so the linear
// insert and suffix rebuild are off the hot path. Returns the insertion
// index.
func (c *Cursors) insertDemoted(post []int32, pos int32, ub float64) int {
	at := 0
	for at < len(c.demUbs) && c.demUbs[at] >= ub {
		at++
	}
	c.demPosts = append(c.demPosts, nil)
	copy(c.demPosts[at+1:], c.demPosts[at:])
	c.demPosts[at] = post
	c.demPos = append(c.demPos, 0)
	copy(c.demPos[at+1:], c.demPos[at:])
	c.demPos[at] = pos
	c.demUbs = append(c.demUbs, 0)
	copy(c.demUbs[at+1:], c.demUbs[at:])
	c.demUbs[at] = ub

	n := len(c.demUbs)
	if cap(c.demSuffix) < n+1 {
		c.demSuffix = make([]float64, n+1)
	}
	c.demSuffix = c.demSuffix[:n+1]
	c.demSuffix[n] = 0
	for i := n - 1; i >= 0; i-- {
		c.demSuffix[i] = c.demSuffix[i+1] + c.demUbs[i]
	}
	// Keep the pivot seed and the suffix sums the same float, so the
	// pre-probe cut-off agrees bit-for-bit with pivot selection.
	c.demoted = c.demSuffix[0]
	return at
}

// Next returns the next candidate document whose summed score upper
// bound exceeds theta, in strictly ascending document order, or ok=false
// when the walk is exhausted. theta is the caller's running skip bar and
// must never decrease across calls (both callers' bars — a running K-th
// score and a running pending-pool bound — are monotone); a larger theta
// can only shrink the surviving set. Each returned document's bound sum —
// base plus the bounds of every cursor positioned on it — is strictly
// greater than theta, and every document passed over had a bound sum at
// most theta: cursors are kept sorted by current document, the pivot is
// the first prefix whose bound sum exceeds theta, and any passed-over
// document lives only in cursors strictly before the pivot, whose prefix
// sum failed. Skipping is by galloping seek, so runs of hopeless postings
// cost O(log run) instead of O(run). With SetBlocks installed a pivot is
// additionally checked against its id-range block's structural bound, and
// cursors whose bound mass can no longer carry a document past theta on
// its own are demoted out of the walk order and only probed at candidate
// documents.
func (c *Cursors) Next(theta float64) (int32, bool) {
	ord := c.ord
	// Step every cursor off the previously returned document, so the walk
	// makes progress and never returns an id twice. The slice is sorted,
	// so those cursors are exactly the prefix whose doc equals last (which
	// is -1 before the first call, matching nothing).
	dirty := 0
	for dirty < len(ord) && int32(ord[dirty]>>32) == c.last {
		id := int(int32(ord[dirty]))
		np := int(c.pos[id]) + 1
		c.pos[id] = int32(np)
		if np < len(c.posts[id]) {
			ord[dirty] = key(c.posts[id][np], id)
		} else {
			ord[dirty] = key(exhaustedDoc, id)
		}
		dirty++
	}
	// Essential-list demotion: once theta clears base + demoted plus the
	// smallest live cursor bound, every document covered only by that
	// cursor (and previously demoted ones) is provably below threshold.
	// Drop the cursor from the walk order — it keeps its posting position
	// and is probed at candidate docs — and add its bound to the demoted
	// mass seeding pivot selection. demoteBar caches the theta the next
	// demotion needs, so the scan runs only when one is possible.
	for theta > c.demoteBar {
		minUb, minAt := math.Inf(1), -1
		for i, o := range ord {
			if int32(o>>32) == exhaustedDoc {
				continue
			}
			if ub := c.ubs[int(int32(o))]; ub < minUb {
				minUb, minAt = ub, i
			}
		}
		if minAt < 0 {
			c.demoteBar = math.Inf(1)
			break
		}
		if c.base+c.demoted+minUb > theta {
			c.demoteBar = c.base + c.demoted + minUb
			break
		}
		id := int(int32(ord[minAt]))
		c.cursorsCut++
		di := c.insertDemoted(c.posts[id], c.pos[id], minUb)
		if c.bsize > 0 {
			c.mergeDemotedIntoBlock(di)
		}
		copy(ord[minAt:], ord[minAt+1:])
		ord = ord[:len(ord)-1]
		if minAt < dirty {
			dirty--
		}
	}
	for {
		// Restore ascending order. Only the first dirty entries moved (their
		// keys grew), so each is re-inserted rightward into the still-sorted
		// remainder instead of re-sorting the whole slice.
		for i := dirty - 1; i >= 0; i-- {
			v := ord[i]
			j := i
			for j+1 < len(ord) && ord[j+1] < v {
				ord[j] = ord[j+1]
				j++
			}
			ord[j] = v
		}
		// Trim exhausted cursors — the sentinel sorted them onto the tail.
		for len(ord) > 0 && int32(ord[len(ord)-1]>>32) == exhaustedDoc {
			ord = ord[:len(ord)-1]
		}
		c.ord = ord
		if len(ord) == 0 {
			c.flushDemoted()
			return 0, false
		}
		// Pivot selection: accumulate bounds in doc order until the sum
		// beats theta. The seed includes the demoted mass — demoted lists
		// may still cover any document, so skips below the pivot must
		// admit their contribution. No pivot means no remaining document
		// can qualify.
		sum := c.base + c.demoted
		pivot := -1
		for i, o := range ord {
			sum += c.ubs[int(int32(o))]
			if sum > theta {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			for _, o := range ord {
				id := int(int32(o))
				c.skipped += int64(len(c.posts[id])) - int64(c.pos[id])
			}
			c.ord = ord[:0]
			c.flushDemoted()
			return 0, false
		}
		pivotDoc := int32(ord[pivot] >> 32)
		if int32(ord[0]>>32) == pivotDoc {
			// Every cursor at or before the pivot sits on pivotDoc; the
			// seeded bound sum exceeds theta. Extend the run to every live
			// cursor on pivotDoc, then tighten the bound in two stages
			// before committing to a candidate.
			run := pivot + 1
			for run < len(ord) && int32(ord[run]>>32) == pivotDoc {
				run++
			}
			runSum := 0.0
			for i := 0; i < run; i++ {
				runSum += c.ubs[int(int32(ord[i]))]
			}
			// sb is the structural bound used from here on: the global base,
			// tightened to the id-range block's bound when that is smaller
			// (both are admissible for every document in the block).
			sb := c.base
			blk := 0
			if c.bsize > 0 {
				blk = int(pivotDoc) / c.bsize
				c.blocksChecked++
				if blk != c.memoBlk {
					c.memoBlk, c.memoBB = blk, c.bbound(blk)
				}
				if bb := c.memoBB; bb < sb {
					sb = bb
				}
				if sb+runSum+c.demoted <= theta {
					// The block bound rules out pivotDoc — and every document
					// up to the next block boundary or the next live cursor
					// position, whichever is closer: any such document is
					// covered only by run or demoted cursors (later live
					// cursors sit past it), whose bounds runSum + demoted
					// already admit, and shares the block's structural
					// ranges. Shallow-advance the run without touching the
					// skipped entries individually. Demoted cursors are left
					// behind; their entries in the range are accounted when
					// they are next probed or flushed.
					c.blocksSkipped++
					target := (blk + 1) * c.bsize
					if run < len(ord) {
						if nd := int(ord[run] >> 32); nd < target {
							target = nd
						}
					}
					for i := 0; i < run; i++ {
						id := int(int32(ord[i]))
						np := seekPosting(c.posts[id], int(c.pos[id]), int32(target))
						c.skipped += int64(np) - int64(c.pos[id])
						c.pos[id] = int32(np)
						if np < len(c.posts[id]) {
							ord[i] = key(c.posts[id][np], id)
						} else {
							ord[i] = key(exhaustedDoc, id)
						}
					}
					dirty = run
					continue
				}
			}
			// Probe the demoted cursors for membership on pivotDoc, so the
			// emitted document's bound sum counts only cursors actually
			// covering it.
			tight := sb + runSum
			if c.bsize > 0 {
				// Blocks installed: the per-block accumulator makes the
				// probe a single array read (see enterDemBlock).
				if blk != c.demBlk {
					c.enterDemBlock(blk)
				}
				j := int(pivotDoc) - blk*c.bsize
				tight += c.demMass[j]
				if tight > theta {
					// Emitting pivotDoc consumes its demoted entries, which
					// were provisionally counted skipped at accumulation.
					c.skipped -= int64(c.demCount[j])
					c.lastBound = tight
					c.last = pivotDoc
					return pivotDoc, true
				}
			} else {
				// No blocks: probe each demoted list directly, largest
				// bound first. The suffix sums give an early out: once even
				// full membership of the remaining demoted mass cannot
				// carry the bound past theta, pivotDoc is provably below
				// threshold and the unprobed cursors stay lagging — their
				// entries are accounted when next probed or flushed, and
				// they only ever cover skipped documents.
				hits := c.probeHits[:0]
				certified := false
				for i := range c.demUbs {
					if tight+c.demSuffix[i] <= theta {
						certified = true
						break
					}
					post := c.demPosts[i]
					p := int(c.demPos[i])
					if p < len(post) && post[p] < pivotDoc {
						// Adjacent probes mostly advance a step or two; scan
						// linearly before paying for the galloping seek.
						p0 := p
						for p < len(post) && post[p] < pivotDoc {
							if p-p0 == 8 {
								p = seekPosting(post, p, pivotDoc)
								break
							}
							p++
						}
						c.skipped += int64(p - p0)
						c.demPos[i] = int32(p)
					}
					if p < len(post) && post[p] == pivotDoc {
						tight += c.demUbs[i]
						hits = append(hits, i)
					}
				}
				if cap(hits) > cap(c.probeHits) {
					c.probeHits = hits
				}
				if !certified && tight > theta {
					// Emitting pivotDoc consumes the probed entries; step
					// the hit cursors past it without counting them skipped.
					for _, i := range hits {
						c.demPos[i]++
					}
					c.lastBound = tight
					c.last = pivotDoc
					return pivotDoc, true
				}
				for _, i := range hits {
					c.demPos[i]++
					c.skipped++
				}
			}
			// pivotDoc is provably below threshold (the seeded pivot sum
			// overcounted via the demoted mass). Skip just this document.
			for i := 0; i < run; i++ {
				id := int(int32(ord[i]))
				np := int(c.pos[id]) + 1
				c.skipped++
				c.pos[id] = int32(np)
				if np < len(c.posts[id]) {
					ord[i] = key(c.posts[id][np], id)
				} else {
					ord[i] = key(exhaustedDoc, id)
				}
			}
			dirty = run
			continue
		}
		// Cursors before the pivot lag behind pivotDoc; everything they
		// cover below it belongs to a failing prefix. Seek them forward.
		for i := 0; i < pivot; i++ {
			if int32(ord[i]>>32) >= pivotDoc {
				continue
			}
			id := int(int32(ord[i]))
			np := seekPosting(c.posts[id], int(c.pos[id]), pivotDoc)
			c.skipped += int64(np) - int64(c.pos[id])
			c.pos[id] = int32(np)
			if np < len(c.posts[id]) {
				ord[i] = key(c.posts[id][np], id)
			} else {
				ord[i] = key(exhaustedDoc, id)
			}
		}
		dirty = pivot
	}
}

// seekPosting returns the first position >= pos whose entry is >= target,
// by galloping then binary search. post[pos] < target must hold.
func seekPosting(post []int32, pos int, target int32) int {
	lo, hi := pos, len(post)
	for step := 1; pos+step < len(post); step *= 2 {
		if post[pos+step] >= target {
			hi = pos + step
			break
		}
		lo = pos + step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if post[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
