// Property tests over arbitrary window shapes for the two per-window
// structures the pruner relies on: the capped posting-list gather
// (CandidatesUpTo) and the degree bands whose bounds certify its skips.
// The Cursors names are those of the posting-cursor walk these targets
// used to drive; the gather walks the same posting lists, and the bands
// are the block-max bounds that are left.

package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dehealth/internal/stylometry"
)

// sparseSource builds n users over attributes [0, dim), each carrying 0
// to min(dim, 3) of them — attribute-free users included — with random
// degrees and, when normed, random vector norms (some left at zero).
func sparseSource(rng *rand.Rand, n, dim int, normed bool) Source {
	f := fakeSource{
		attrs: make([]stylometry.AttrSet, n),
		deg:   make([]float64, n),
		wdeg:  make([]float64, n),
	}
	for u := 0; u < n; u++ {
		per := rng.Intn(min(dim, 3) + 1)
		var idx, w []int32
		for _, a := range rng.Perm(dim)[:per] {
			idx = append(idx, int32(a))
		}
		slices.Sort(idx)
		for range idx {
			w = append(w, int32(1+rng.Intn(4)))
		}
		f.attrs[u] = stylometry.AttrSet{Idx: idx, Weight: w}
		f.deg[u] = float64(rng.Intn(30))
		f.wdeg[u] = f.deg[u] * (0.5 + rng.Float64())
	}
	if !normed {
		return f
	}
	ns := normedSource{fakeSource: f, ncs: make([]float64, n), close: make([]float64, n), wcl: make([]float64, n)}
	for u := 0; u < n; u++ {
		if rng.Intn(3) > 0 {
			ns.ncs[u], ns.close[u], ns.wcl[u] = rng.Float64()*4, rng.Float64()*2, rng.Float64()
		}
	}
	return ns
}

// overlapUnion returns the brute-force candidate set of a query: every
// window user sharing at least one attribute with attrs.
func overlapUnion(src Source, attrs stylometry.AttrSet) map[int32]bool {
	q := map[int32]bool{}
	for _, a := range attrs.Idx {
		q[a] = true
	}
	out := map[int32]bool{}
	for u := 0; u < src.NumUsers(); u++ {
		for _, a := range src.Attrs(u).Idx {
			if q[a] {
				out[int32(u)] = true
				break
			}
		}
	}
	return out
}

// checkGather verifies one CandidatesUpTo call against the brute-force
// union: exactly min(limit+1, |union|) distinct union members, each
// marked, no other window user marked, and band counts that sum per band
// to the returned members.
func checkGather(t *testing.T, x *Index, s *Scratch, got []int32, union map[int32]bool, limit int) {
	t.Helper()
	if want := min(limit+1, len(union)); len(got) != want {
		t.Fatalf("limit %d: %d candidates, want %d (union %d)", limit, len(got), want, len(union))
	}
	inGot := map[int32]bool{}
	perBand := make([]int, len(x.Bands()))
	for _, u := range got {
		if inGot[u] {
			t.Fatalf("limit %d: candidate %d returned twice", limit, u)
		}
		if !union[u] {
			t.Fatalf("limit %d: candidate %d shares no query attribute", limit, u)
		}
		inGot[u] = true
		perBand[x.bandOf[u]]++
	}
	for u := 0; u < x.NumUsers(); u++ {
		if s.Marked(int32(u)) != inGot[int32(u)] {
			t.Fatalf("limit %d: user %d marked %v, returned %v", limit, u, s.Marked(int32(u)), inGot[int32(u)])
		}
	}
	for b := range perBand {
		if s.BandCandidates(b) != perBand[b] {
			t.Fatalf("limit %d band %d: BandCandidates %d, want %d", limit, b, s.BandCandidates(b), perBand[b])
		}
	}
}

// FuzzCursorsInvariants fuzzes the capped gather over random windows,
// queries (out-of-range attribute ids included) and limits, reusing one
// scratch for a capped and then an uncapped gather of two different
// queries so stale marks from the first would show in the second.
func FuzzCursorsInvariants(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(50), uint8(128))
	f.Add(int64(99), uint8(1), uint8(200), uint8(0))
	f.Add(int64(-7), uint8(8), uint8(30), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, dimB, nB, limitB uint8) {
		if nB == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		n, dim := int(nB), int(dimB)%16+1
		src := sparseSource(rng, n, dim, false)
		x := Build(src, Config{Bands: 1 + rng.Intn(8)})
		s := x.AcquireScratch()
		defer x.ReleaseScratch(s)

		query := func() stylometry.AttrSet {
			var idx []int32
			for a := int32(0); a < int32(dim)+2; a++ {
				if rng.Intn(3) == 0 {
					idx = append(idx, a)
				}
			}
			return stylometry.AttrSet{Idx: idx, Weight: make([]int32, len(idx))}
		}
		q1, q2 := query(), query()
		limit := int(limitB) * (n + 1) / 255
		checkGather(t, x, s, x.CandidatesUpTo(q1, s, limit), overlapUnion(src, q1), limit)
		checkGather(t, x, s, x.CandidatesUpTo(q2, s, n), overlapUnion(src, q2), n)
		checkGather(t, x, s, x.Candidates(q1, s), overlapUnion(src, q1), n)
	})
}

// TestCursorsAddDropsEmpty pins that query attributes with empty posting
// lists — ids nobody in the window carries and ids past the index's
// attribute range — add no candidates and use up none of the limit.
func TestCursorsAddDropsEmpty(t *testing.T) {
	src := fakeSource{
		attrs: []stylometry.AttrSet{
			{Idx: []int32{0, 2}, Weight: []int32{1, 1}},
			{Idx: []int32{2}, Weight: []int32{1}},
			{},
			{Idx: []int32{0}, Weight: []int32{1}},
		},
		deg:  []float64{1, 2, 3, 4},
		wdeg: []float64{1, 2, 3, 4},
	}
	x := Build(src, Config{Bands: 2})
	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)

	empty := stylometry.AttrSet{Idx: []int32{1, 3, 50}, Weight: []int32{1, 1, 1}}
	if got := x.CandidatesUpTo(empty, s, 0); len(got) != 0 {
		t.Fatalf("attributes without carriers produced candidates %v", got)
	}
	mixed := stylometry.AttrSet{Idx: []int32{1, 2, 3, 50}, Weight: []int32{1, 1, 1, 1}}
	for _, limit := range []int{1, 2, 4} {
		got := x.CandidatesUpTo(mixed, s, limit)
		checkGather(t, x, s, got, map[int32]bool{0: true, 1: true}, limit)
	}
}

// FuzzCursorsBlockMax fuzzes the degree bands, the bounds the pruner
// skips zero-overlap users by: min(Bands, n) non-empty bands that
// partition the window, each band's ids ascending and recorded in bandOf,
// the bands ordered by degree, and each band's ranges
// exactly the min and max of its members' degrees and norms — unknown
// ([0, +Inf]) without a NormSource, so the bound never tightens on norms
// it was not given.
func FuzzCursorsBlockMax(f *testing.F) {
	f.Add(int64(1), uint16(100), int16(16), true)
	f.Add(int64(9), uint16(250), int16(1), false)
	f.Add(int64(-3), uint16(60), int16(0), true)
	f.Fuzz(func(t *testing.T, seed int64, nU uint16, bands int16, normed bool) {
		n := int(nU) % 400
		rng := rand.New(rand.NewSource(seed))
		src := sparseSource(rng, n, 8, normed)
		x := Build(src, Config{Bands: int(bands)})
		want := min(Config{Bands: int(bands)}.WithDefaults().Bands, n)
		if len(x.Bands()) != want {
			t.Fatalf("n %d bands %d: %d bands, want %d", n, bands, len(x.Bands()), want)
		}
		seen := make([]bool, n)
		norms, _ := src.(NormSource)
		prevDeg := math.Inf(-1)
		for b, band := range x.Bands() {
			if len(band.IDs) == 0 {
				t.Fatalf("band %d is empty", b)
			}
			for i, u := range band.IDs {
				if i > 0 && band.IDs[i-1] >= u {
					t.Fatalf("band %d ids not strictly ascending", b)
				}
				if seen[u] {
					t.Fatalf("user %d in two bands", u)
				}
				seen[u] = true
				if int(x.bandOf[u]) != b {
					t.Fatalf("user %d in band %d but bandOf says %d", u, b, x.bandOf[u])
				}
			}
			if band.DegLo < prevDeg {
				t.Fatalf("band %d starts at degree %v, below the previous band's top %v", b, band.DegLo, prevDeg)
			}
			prevDeg = band.DegHi
			check := func(name string, gotLo, gotHi float64, val func(int) float64) {
				mn, mx := math.Inf(1), math.Inf(-1)
				for _, u := range band.IDs {
					mn, mx = math.Min(mn, val(int(u))), math.Max(mx, val(int(u)))
				}
				if gotLo != mn || gotHi != mx {
					t.Fatalf("band %d %s range [%v, %v], want [%v, %v]", b, name, gotLo, gotHi, mn, mx)
				}
			}
			check("deg", band.DegLo, band.DegHi, src.Degree)
			check("wdeg", band.WdegLo, band.WdegHi, src.WeightedDegree)
			if norms != nil {
				check("ncs", band.NCSNormLo, band.NCSNormHi, norms.NCSNorm)
				check("close", band.CloseNormLo, band.CloseNormHi, norms.CloseNorm)
				check("wcl", band.WclNormLo, band.WclNormHi, norms.WclNorm)
			} else if band.NCSNormLo != 0 || !math.IsInf(band.NCSNormHi, 1) ||
				band.CloseNormLo != 0 || !math.IsInf(band.CloseNormHi, 1) ||
				band.WclNormLo != 0 || !math.IsInf(band.WclNormHi, 1) {
				t.Fatalf("band %d: norm-less build must record unknown ranges: %+v", b, band)
			}
		}
		for u, ok := range seen {
			if !ok {
				t.Fatalf("user %d in no band", u)
			}
		}
	})
}
