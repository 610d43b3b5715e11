// The range-scan kernel: the multi-query batched scorer behind every
// whole-window walk (its one production caller is the shard scan,
// internal/shard/batch.go). A per-query loop over ScoreWith walks the
// aux-side flat arrays once per query; under the serving layer's router
// groups, or the offline Top-K phase's strips, that means Q full
// passes over the same SoA blocks. ScoreRangeAbove inverts the loop nest:
// it walks each aux row once and evaluates all Q prepared queries against
// it while the row's closeness/NCS/attribute data is hot in cache.
//
// The batch also buys the attribute merge a cheaper shape. The per-pair
// sorted-list merge (attrSimFused) is O(|A|+|B|) with a data-dependent
// three-way branch per step — the dominant per-pair cost on dense-attribute
// worlds. PrepareBatch instead scatters each query's attribute weights into
// a dense id-indexed table (one table per query, width = 1 + the max aux
// attribute id, built once per batch), and the kernel computes the
// intersection by a single branch-predictable pass over the aux row's
// attribute list with O(1) table lookups — O(|B|) per pair, and the O(|A|)
// table build amortizes over every row of the scan.
//
// Bit-identity with ScoreSlow (and hence with ScoreWith/ScoreRange) holds
// because the restructuring never touches a floating-point operation:
//
//   - the loop interchange reorders which (u, v) pair is evaluated when,
//     never the operations within a pair — each pair still computes the
//     exact expression ScoreWith computes, operand for operand;
//   - the table merge only reorganizes *integer* arithmetic: it counts the
//     same intersection cardinality |A∩B| and the same Σmin(w) the sorted
//     merge counts (integer addition is associative and exact), so the
//     final float64 divisions see identical numerators and denominators;
//   - membership via table lookup is exact — attribute ids are unique
//     within a sorted set, weights are >= 1 (stylometry.AttrSet), so -1
//     marks absence unambiguously.
//
// The parity tests (batch_test.go) pin the equivalence on randomized
// worlds, mixed batch widths, shard windows and nodes appended after
// SyncAnon; core's oracle table (oracle_test.go) pins it on real-text
// worlds.
//
// The kernel is also threshold-aware. Even the table merge is ~190
// look-ups per pair on real text, and a top-K consumer throws nearly all
// of the resulting scores away: once its heap is full, only rows that
// reach the heap's k-th score matter. Given that score as a per-query
// floor, the kernel bounds a pair before scoring it, from state the scan
// already streams: |A∩B| exactly, by AND+popcount of two presence bitsets
// over the auxiliary id space (the window's per row, the batch's per
// query), which makes the Jaccard term exact and bounds the weighted one
// (attrSimBound, bounds.go); the two degree ratios exactly; each cosine by
// cosBound against the row's own norm; the weighted sum inflated by the
// bounds' usual safety margin. A pair whose bound is strictly below its
// floor gets the bound stored in place of its score — still below the
// floor, so the consumer rejects it exactly as it would have rejected the
// score — and skips the merge and all three cosines. Every other pair is
// scored exactly as described above, so exactness is untouched: the
// consumer sees the true score of every pair that could matter to it.
// FuzzPairBound (pairbound_test.go) pins bound >= ScoreSlow through this
// kernel; the shard scan's tests pin that floors change no answer.

package similarity

import (
	"math"
	"math/bits"
)

var negInf = math.Inf(-1)

// BatchProfile is the prepared state of Q query users: one QueryProfile
// per user plus the per-query dense attribute weight tables the batched
// kernel's merge reads and, when the auxiliary window carries presence
// bitsets, each query's own bitset over the same id space. Prepare it with
// PrepareBatch; a profile holds views into the scorer's caches and stays
// valid until the next SyncAnon. The struct is caller-owned and reusable:
// preparing a new batch into it reuses the previous batch's allocations, so
// a steady-state consumer (the shard scan's pooled scratch) allocates
// nothing per batch.
type BatchProfile struct {
	profs []QueryProfile
	tab   []int32 // Q dense weight tables, row-major, stride tabW; -1 = absent
	tabW  int
	bits  []uint64 // Q presence bitsets, row-major, stride bitW; empty when the window has none
	bitW  int
}

// Len returns the batch width Q.
func (b *BatchProfile) Len() int { return len(b.profs) }

// User returns the anonymized user the q-th profile was prepared for.
func (b *BatchProfile) User(q int) int {
	if uint(q) >= uint(len(b.profs)) {
		panic("similarity: BatchProfile.User index out of range")
	}
	return b.profs[q].u
}

// PrepareBatch fills b with the prepared profiles of users: each entry is
// PrepareQuery's state plus a dense attribute table mapping attribute id
// to the user's weight (-1 when absent) and, on a window with presence
// bitsets, the user's bitset. Both are sized to the aux side's attribute id
// space; query attributes beyond it cannot intersect any auxiliary set and
// are (correctly) in neither. b is caller-owned; reuse amortizes all
// allocations away.
func (s *Scorer) PrepareBatch(users []int, b *BatchProfile) {
	q := len(users)
	if cap(b.profs) < q {
		b.profs = make([]QueryProfile, q)
	}
	b.profs = b.profs[:q]
	b.tabW, b.bitW = s.ax.attrW, s.ax.bitW
	if need := q * b.tabW; cap(b.tab) < need {
		b.tab = make([]int32, need)
	}
	b.tab = b.tab[:q*b.tabW]
	if need := q * b.bitW; cap(b.bits) < need {
		b.bits = make([]uint64, need)
	}
	b.bits = b.bits[:q*b.bitW]
	clear(b.bits)
	profs := b.profs
	users = users[:len(profs)]
	for i, u := range users {
		p := &profs[i]
		s.PrepareQuery(u, p)
		tab := b.tab[i*b.tabW : (i+1)*b.tabW]
		for t := range tab {
			tab[t] = -1
		}
		wts := p.attrs.Weight[:len(p.attrs.Idx)]
		for t, id := range p.attrs.Idx {
			if i := int(id); uint(i) < uint(len(tab)) {
				tab[i] = wts[t]
			}
		}
		setBits(b.bits[i*b.bitW:(i+1)*b.bitW], p.attrs.Idx)
	}
}

// ScoreRangeBatch evaluates Score(b.User(q), v) for every q in [0, b.Len())
// and v in [lo, hi) into out: out[q][v-lo] receives query q's score of aux
// row v (len(out) >= b.Len(), len(out[q]) >= hi-lo). Every score is exact —
// it is ScoreRangeAbove with no floors, the same kernel body. Zero
// allocations; bit-identical to ScoreSlow (see the file comment).
func (s *Scorer) ScoreRangeBatch(b *BatchProfile, lo, hi int, out [][]float64) {
	s.ScoreRangeAbove(b, lo, hi, nil, out)
}

// ScoreRangeAbove is the blocked multi-query kernel: the outer loop streams
// aux rows [lo, hi), hoisting each row's vector views and norms once, and
// the inner loop scores all Q queries against the hot row into out
// (out[q][v-lo], as ScoreRangeBatch). floors, when non-nil, carries one
// score per query the caller no longer cares to see undercut — the shard
// scan passes each heap's current k-th score — and lets the kernel skip
// work: before a pair's merge and cosines it computes an admissible upper
// bound on the pair's score (the file comment says from what), and when
// that bound is strictly below floors[q] it stores the bound in place of
// the score and moves on. A stored bound is >= the pair's true score and <
// floors[q], so a consumer that only keeps scores >= its floor (ties
// included) sees exactly what it would have seen from exact scores. Every
// other pair — and every pair when floors is nil or floors[q] is -Inf (no
// floor yet), the window carries no bitsets, or the configuration is not
// PruneSafe — is scored exactly, operand for operand as ScoreSlow. It
// returns how many pairs were skipped. Zero allocations; the inner loops compile without
// bounds checks (scripts/check_bce.sh pins this).
func (s *Scorer) ScoreRangeAbove(b *BatchProfile, lo, hi int, floors []float64, out [][]float64) (skipped int) {
	profs := b.profs
	if len(profs) == 0 || hi <= lo {
		return 0
	}
	n := hi - lo
	out = out[:len(profs)]
	for q := range out {
		_ = out[q][:n] // fail fast on short rows; the kernel's guarded writes never mask this
	}
	ax := s.ax
	h := ax.hbar2
	w := b.tabW
	bw := b.bitW
	c1, c2, c3 := s.cfg.C1, s.cfg.C2, s.cfg.C3
	filter := floors != nil && bw > 0 && s.PruneSafe()
	if filter {
		floors = floors[:len(profs)]
	} else {
		floors, bw = nil, 0 // no query has a floor; every bitset view below is empty and never read
	}
	// Window-local views of the row-streamed arrays, every sibling resliced
	// to len(deg): the compiler proves all per-row indexing in-bounds from
	// the one range induction variable (scripts/check_bce.sh pins this).
	deg := ax.deg[lo:hi]
	wdeg := ax.wdeg[lo:hi][:len(deg)]
	attrs := ax.attrs[lo:hi][:len(deg)]
	attrTotW := ax.attrTotW[lo:hi][:len(deg)]
	ncsNorm := ax.ncsNorm[lo:hi][:len(deg)]
	closeNorm := ax.closeNorm[lo:hi][:len(deg)]
	wclNorm := ax.wclNorm[lo:hi][:len(deg)]
	ncsOff := ax.ncsOff[lo : hi+1][:len(deg)+1]
	closeM := ax.close[lo*h : hi*h]
	wclM := ax.wcl[lo*h : hi*h][:len(closeM)]
	bitsM := ax.attrBits[lo*bw : hi*bw]
	off := ncsOff[0] // ragged NCS offsets, streamed as a running cursor
	for i := range deg {
		next := off
		if uint(i+1) < uint(len(ncsOff)) { // always true: len(ncsOff) = len(deg)+1
			next = ncsOff[i+1]
		}
		ncsV := ax.ncs[off:next]
		off = next
		ncsNormV := ncsNorm[i]
		closeV := closeM[i*h : (i+1)*h]
		wclV := wclM[i*h : (i+1)*h]
		closeNormV := closeNorm[i]
		wclNormV := wclNorm[i]
		degV, wdegV := deg[i], wdeg[i]
		attrsV, attrTotV := attrs[i], attrTotW[i]
		bi := attrsV.Idx
		bwts := attrsV.Weight[:len(bi)]
		bitsV := bitsM[i*bw : (i+1)*bw]
		for q := range profs {
			p := &profs[q]
			row := out[q]
			ratios := ratioSim(p.deg, degV) + ratioSim(p.wdeg, wdegV)
			// floors spans the batch when filtering and is empty otherwise; -Inf
			// is a query without a floor yet, which no bound can undercut.
			if uint(q) < uint(len(floors)) && floors[q] != negInf {
				inter := andCount(b.bits[q*bw:(q+1)*bw], bitsV)
				ub := c1*(ratios+cosBound(p.ncsNorm, ncsNormV)) +
					c2*(cosBound(p.closeNorm, closeNormV)+cosBound(p.wclNorm, wclNormV)) +
					c3*attrSimBound(inter, len(p.attrs.Idx), len(bi), p.attrTotW, attrTotV)
				if ub = inflate(ub); ub < floors[q] {
					if uint(i) < uint(len(row)) { // always true (validated above)
						row[i] = ub
					}
					skipped++
					continue
				}
			}
			d := ratios + cosinePre(p.ncs, p.ncsNorm, ncsV, ncsNormV)
			ds := cosinePre(p.close, p.closeNorm, closeV, closeNormV) +
				cosinePre(p.wcl, p.wclNorm, wclV, wclNormV)
			inter, winter := tableMerge(b.tab[q*w:(q+1)*w], bi, bwts)
			a := attrSimOf(inter, winter, len(p.attrs.Idx)+len(bi), p.attrTotW+attrTotV)
			if uint(i) < uint(len(row)) { // always true (validated above); keeps the store check-free
				row[i] = c1*d + c2*ds + c3*a
			}
		}
	}
	return skipped
}

// tableMerge counts |A∩B| and Σmin(w) of one auxiliary attribute list
// (ids, wts) against a query's dense weight table: a single
// branch-predictable pass with O(1) look-ups. A leaf function of its own so
// the four loop-carried values live in registers; inlined into the kernel
// body they spill to the stack on every iteration.
//
//go:noinline
func tableMerge(tab []int32, ids, wts []int32) (inter, winter int) {
	wts = wts[:len(ids)]
	for t, id := range ids {
		if i := int(id); uint(i) < uint(len(tab)) { // always true: tables span the aux id space
			wq := int(tab[i])
			mask := ^(wq >> 63) // all-ones when present (wq >= 1), 0 when absent (-1)
			if x := int(wts[t]); x < wq {
				wq = x
			}
			inter += mask & 1
			winter += mask & wq
		}
	}
	return inter, winter
}

// andCount returns the number of bits set in both a and b — |A∩B| of two
// presence bitsets over the same id space.
//
//go:noinline
func andCount(a, b []uint64) (n int) {
	b = b[:len(a)]
	for i, x := range a {
		n += bits.OnesCount64(x & b[i])
	}
	return n
}
