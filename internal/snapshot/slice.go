// Per-shard snapshot slices: SliceForShard cuts a full-world snapshot
// into the artifact one distributed shard server boots from. The slice
// carries the full anonymized side (every shard scores the same queries)
// but only the shard's auxiliary window [lo, hi): its users, their posts
// and feature rows, the induced adjacency, the scorer's aux-side cache
// arrays restricted to the window. Loaded back, the slice is an ordinary
// single-shard world whose local auxiliary id j corresponds to global id
// lo+j — because the in-process shard
// engine scores windows against globally computed values (the scorer
// window arrays ARE contiguous views of the global arrays), a slice-booted
// server answers its window bit-identically to the in-process shard, and
// a router merging slice answers under the global selection order is
// bit-identical to the single-process fan-out.

package snapshot

import (
	"errors"
	"fmt"

	"dehealth/internal/corpus"
	"dehealth/internal/similarity"
)

// ErrAlreadySlice marks an attempt to slice a snapshot that is itself a
// slice of a larger world. Slices are cut from full worlds only: slicing
// a slice would silently renumber the global id space the router's merge
// contract depends on.
var ErrAlreadySlice = errors.New("snapshot: world is already a shard slice")

// SliceForShard cuts shard i's slice out of a full-world snapshot. bounds
// are the n+1 partition offsets over the auxiliary population (shard i
// spans [bounds[i], bounds[i+1])), exactly as shard.Bounds computes them —
// the caller supplies them so this package stays free of partitioning
// policy. The returned World is self-contained: Save it and a shard server
// boots from the file mapping only its own partition (plus the shared
// anonymized side). The slice's Meta keeps the prepare-time configuration
// (similarity weights, landmarks, feature space) with Shards forced to 1
// and Meta.Slice recording the shard identity; slicing a slice is
// rejected with ErrAlreadySlice.
func SliceForShard(full *World, i int, bounds []int) (*World, error) {
	if full.Meta.Slice != nil {
		s := full.Meta.Slice
		return nil, fmt.Errorf("%w: shard %d of %d over [%d, %d)", ErrAlreadySlice, s.Shard, s.Shards, s.Lo, s.Hi)
	}
	total := len(full.Scorer.AuxDeg)
	n := len(bounds) - 1
	if n < 1 {
		return nil, fmt.Errorf("snapshot: slice bounds %v define no shards", bounds)
	}
	if bounds[0] != 0 || bounds[n] != total {
		return nil, fmt.Errorf("snapshot: slice bounds %v do not tile [0, %d)", bounds, total)
	}
	for j := 1; j <= n; j++ {
		if bounds[j] < bounds[j-1] {
			return nil, fmt.Errorf("snapshot: slice bounds %v decrease at %d", bounds, j)
		}
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("snapshot: shard %d out of [0, %d)", i, n)
	}
	lo, hi := bounds[i], bounds[i+1]

	out := &World{Meta: full.Meta}
	out.Meta.Shards = 1 // the shard process runs its window unpartitioned
	out.Meta.Slice = &SliceMeta{Shard: i, Shards: n, Lo: lo, Hi: hi, AuxTotal: total}
	out.Anon = full.Anon

	aux, err := sliceAuxSide(&full.Aux, lo, hi)
	if err != nil {
		return nil, err
	}
	out.Aux = aux
	out.Scorer = sliceScorer(&full.Scorer, lo, hi)
	return out, nil
}

// sliceAuxSide restricts one dataset side to the user window [lo, hi),
// cut from the side's in-memory dataset: the dataset keeps the window's
// users (re-densified to local ids), their posts (global post order
// preserved, so per-user post order — and hence the per-user feature
// views — survive), and the threads those posts belong to; the feature
// matrix keeps exactly the kept posts' rows, as views of the full side's
// rows; attribute sets and CSR adjacency are window-sliced, with
// cross-window edges dropped (scoring reads the scorer's precomputed
// arrays, never the sliced topology).
func sliceAuxSide(full *Side, lo, hi int) (Side, error) {
	var s Side
	d := full.Dataset
	if d == nil || hi > len(d.Users) {
		return s, fmt.Errorf("snapshot: slice [%d, %d) exceeds the aux dataset", lo, hi)
	}
	m := hi - lo
	if len(full.Feat) != len(d.Posts) {
		return s, fmt.Errorf("snapshot: aux matrix of %d rows for %d posts", len(full.Feat), len(d.Posts))
	}

	// Threads are looked up by id (ids need not be dense in a split
	// dataset); kept threads are re-densified in first-use order.
	threadByID := make(map[int]corpus.Thread, len(d.Threads))
	for _, t := range d.Threads {
		threadByID[t.ID] = t
	}
	sliced := corpus.Dataset{Name: d.Name}
	sliced.Users = make([]corpus.User, m)
	for j := 0; j < m; j++ {
		u := d.Users[lo+j]
		u.ID = j
		sliced.Users[j] = u
	}
	threadLocal := map[int]int{} // global thread id -> local thread index
	starterOf := map[int]int{}   // local thread index -> original starter
	for pi, p := range d.Posts {
		if p.User < lo || p.User >= hi {
			continue
		}
		tl, ok := threadLocal[p.Thread]
		if !ok {
			tl = len(sliced.Threads)
			threadLocal[p.Thread] = tl
			th := threadByID[p.Thread]
			starterOf[tl] = th.Starter
			// The starter is fixed up below once the thread's local
			// participants are known; Board carries over.
			sliced.Threads = append(sliced.Threads, corpus.Thread{ID: tl, Board: th.Board, Starter: p.User - lo})
		}
		sliced.Posts = append(sliced.Posts, corpus.Post{
			ID: len(sliced.Posts), User: p.User - lo, Thread: tl, Text: p.Text,
		})
		s.Feat = append(s.Feat, full.Feat[pi])
	}
	// A thread's starter stays when it is inside the window; otherwise the
	// thread's first in-window poster stands in (the field only matters
	// for referential integrity — scoring never reads it).
	for tl := range sliced.Threads {
		if st := starterOf[tl]; st >= lo && st < hi {
			sliced.Threads[tl].Starter = st - lo
		}
	}
	if err := sliced.Validate(); err != nil {
		return s, fmt.Errorf("snapshot: sliced aux dataset invalid: %v", err)
	}
	s.Dataset = &sliced

	// Attribute sets: one contiguous run of the flat arrays, offsets
	// rebased to the window.
	aLo, aHi := full.AttrOff[lo], full.AttrOff[hi]
	s.AttrIdx = full.AttrIdx[aLo:aHi:aHi]
	s.AttrWeight = full.AttrWeight[aLo:aHi:aHi]
	s.AttrOff = rebase(full.AttrOff[lo:hi+1], aLo)

	// Induced CSR adjacency: in-window edges only, endpoints relocalized.
	// Per-user neighbor order was ascending globally, so it stays sorted.
	adjOff := make([]int, m+1)
	var adjTo []int32
	var adjWt []float64
	for j := 0; j < m; j++ {
		for k := full.AdjOff[lo+j]; k < full.AdjOff[lo+j+1]; k++ {
			v := int(full.AdjTo[k])
			if v >= lo && v < hi {
				adjTo = append(adjTo, int32(v-lo))
				adjWt = append(adjWt, full.AdjWeight[k])
			}
		}
		adjOff[j+1] = len(adjTo)
	}
	s.AdjOff, s.AdjTo, s.AdjWeight = adjOff, adjTo, adjWt
	return s, nil
}

// sliceScorer restricts the scorer state to the auxiliary window: the
// anonymized-side caches carry over whole (every shard scores the same
// queries against them), and each aux-side array takes the contiguous
// [lo, hi) run — the same views similarity.Scorer.Shard hands an
// in-process window, which is what makes slice-booted scoring
// bit-identical to the sharded single process.
func sliceScorer(full *similarity.Parts, lo, hi int) similarity.Parts {
	out := *full
	h := full.Hbar2
	nLo, nHi := full.AuxNCSOff[lo], full.AuxNCSOff[hi]
	out.AuxDeg = full.AuxDeg[lo:hi:hi]
	out.AuxWdeg = full.AuxWdeg[lo:hi:hi]
	out.AuxNCS = full.AuxNCS[nLo:nHi:nHi]
	out.AuxNCSOff = rebase(full.AuxNCSOff[lo:hi+1], nLo)
	out.AuxNCSNorm = full.AuxNCSNorm[lo:hi:hi]
	out.AuxClose = full.AuxClose[lo*h : hi*h : hi*h]
	out.AuxCloseNorm = full.AuxCloseNorm[lo:hi:hi]
	out.AuxWcl = full.AuxWcl[lo*h : hi*h : hi*h]
	out.AuxWclNorm = full.AuxWclNorm[lo:hi:hi]
	return out
}

// rebase returns off with base subtracted from every entry — the offset
// table of a window restricted flat array.
func rebase(off []int, base int) []int {
	out := make([]int, len(off))
	for i, v := range off {
		out[i] = v - base
	}
	return out
}
