// The range-scan kernel: the multi-query batched scorer behind every
// whole-window walk (its one production caller is the shard scan,
// internal/shard/batch.go). A per-query loop over ScoreWith walks the
// aux-side flat arrays once per query; under the serving dispatcher's
// micro-batches, or the offline Top-K phase's strips, that means Q full
// passes over the same SoA blocks. ScoreRangeBatch inverts the loop nest:
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

package similarity

// BatchProfile is the prepared state of Q query users: one QueryProfile
// per user plus the per-query dense attribute weight tables the batched
// kernel's merge reads. Prepare it with PrepareBatch; a profile holds
// views into the scorer's caches and stays valid until the next SyncAnon.
// The struct is caller-owned and reusable: preparing a new batch into it
// reuses the previous batch's allocations, so a steady-state consumer
// (the shard scan's pooled scratch) allocates nothing per batch.
type BatchProfile struct {
	profs []QueryProfile
	tab   []int32 // Q dense weight tables, row-major, stride tabW; -1 = absent
	tabW  int
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
// to the user's weight (-1 when absent). Tables are sized to the aux
// side's attribute id space; query attributes beyond it cannot intersect
// any auxiliary set and are (correctly) not tabulated. b is caller-owned;
// reuse amortizes all allocations away.
func (s *Scorer) PrepareBatch(users []int, b *BatchProfile) {
	q := len(users)
	if cap(b.profs) < q {
		b.profs = make([]QueryProfile, q)
	}
	b.profs = b.profs[:q]
	b.tabW = s.ax.attrW
	if need := q * b.tabW; cap(b.tab) < need {
		b.tab = make([]int32, need)
	}
	b.tab = b.tab[:q*b.tabW]
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
			if uint(id) < uint(len(tab)) {
				tab[id] = int32(wts[t])
			}
		}
	}
}

// ScoreRangeBatch evaluates Score(b.User(q), v) for every q in [0, b.Len())
// and v in [lo, hi) into out: out[q][v-lo] receives query q's score of aux
// row v (len(out) >= b.Len(), len(out[q]) >= hi-lo). It is the blocked
// multi-query kernel: the outer loop streams aux rows, hoisting each row's
// vector views and norms once, and the inner loop scores all Q queries
// against the hot row. Zero allocations; bit-identical to ScoreSlow (see
// the file comment). The inner loops compile without bounds checks
// (scripts/check_bce.sh pins this).
func (s *Scorer) ScoreRangeBatch(b *BatchProfile, lo, hi int, out [][]float64) {
	profs := b.profs
	if len(profs) == 0 || hi <= lo {
		return
	}
	n := hi - lo
	out = out[:len(profs)]
	for q := range out {
		_ = out[q][:n] // fail fast on short rows; the kernel's guarded writes never mask this
	}
	ax := s.ax
	h := ax.hbar2
	w := b.tabW
	c1, c2, c3 := s.cfg.C1, s.cfg.C2, s.cfg.C3
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
		bw := attrsV.Weight[:len(bi)]
		for q := range profs {
			p := &profs[q]
			d := ratioSim(p.deg, degV) + ratioSim(p.wdeg, wdegV) +
				cosinePre(p.ncs, p.ncsNorm, ncsV, ncsNormV)
			ds := cosinePre(p.close, p.closeNorm, closeV, closeNormV) +
				cosinePre(p.wcl, p.wclNorm, wclV, wclNormV)
			tab := b.tab[q*w : (q+1)*w]
			var inter, winter int
			for t := 0; t < len(bi); t++ {
				id := bi[t]
				if uint(id) < uint(len(tab)) { // always true: tables span the aux id space
					wq := int(tab[id])
					mask := ^(wq >> 63) // all-ones when present (wq >= 1), 0 when absent (-1)
					if x := bw[t]; x < wq {
						wq = x
					}
					inter += mask & 1
					winter += mask & wq
				}
			}
			var a float64
			if union := len(p.attrs.Idx) + len(bi) - inter; union > 0 {
				a = float64(inter) / float64(union)
			}
			if wunion := p.attrTotW + attrTotV - winter; wunion > 0 {
				a += float64(winter) / float64(wunion)
			}
			row := out[q]
			if uint(i) < uint(len(row)) { // always true (validated above); keeps the store check-free
				row[i] = c1*d + c2*ds + c3*a
			}
		}
	}
}
