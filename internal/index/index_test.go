package index

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dehealth/internal/stylometry"
)

// fakeSource is a synthetic index window: explicit attribute sets and
// degrees, no graphs involved.
type fakeSource struct {
	attrs []stylometry.AttrSet
	deg   []float64
	wdeg  []float64
}

func (f fakeSource) NumUsers() int                  { return len(f.attrs) }
func (f fakeSource) Attrs(u int) stylometry.AttrSet { return f.attrs[u] }
func (f fakeSource) Degree(u int) float64           { return f.deg[u] }
func (f fakeSource) WeightedDegree(u int) float64   { return f.wdeg[u] }

// randomSource builds n users with sparse random attribute sets over
// [0, dim) and random degrees.
func randomSource(n, dim, attrsPer int, seed int64) fakeSource {
	rng := rand.New(rand.NewSource(seed))
	f := fakeSource{
		attrs: make([]stylometry.AttrSet, n),
		deg:   make([]float64, n),
		wdeg:  make([]float64, n),
	}
	for u := 0; u < n; u++ {
		seen := map[int]bool{}
		for len(seen) < attrsPer {
			seen[rng.Intn(dim)] = true
		}
		idx := make([]int, 0, attrsPer)
		for a := range seen {
			idx = append(idx, a)
		}
		sort.Ints(idx)
		w := make([]int, len(idx))
		for i := range w {
			w[i] = 1 + rng.Intn(4)
		}
		f.attrs[u] = stylometry.AttrSet{Idx: idx, Weight: w}
		f.deg[u] = float64(rng.Intn(40))
		f.wdeg[u] = f.deg[u] * (0.5 + rng.Float64())
	}
	return f
}

func TestPostingsExact(t *testing.T) {
	src := randomSource(60, 50, 4, 1)
	x := Build(src, Config{})
	for a := 0; a < 50; a++ {
		var want []int32
		for u := 0; u < src.NumUsers(); u++ {
			if slices.Contains(src.attrs[u].Idx, a) {
				want = append(want, int32(u))
			}
		}
		got := x.Postings(a)
		if len(got) != len(want) {
			t.Fatalf("attr %d: %d postings, want %d", a, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attr %d postings = %v, want %v", a, got, want)
			}
		}
	}
	if x.Postings(-1) != nil || x.Postings(10_000) != nil {
		t.Fatal("out-of-range attributes must have empty postings")
	}
}

func TestCandidatesAreExactlyOverlapUsers(t *testing.T) {
	src := randomSource(80, 40, 3, 2)
	x := Build(src, Config{})
	// One scratch reused across every query: epoch stamping must isolate
	// consecutive queries without any clearing between them.
	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)
	for u := 0; u < src.NumUsers(); u++ {
		got := x.CandidatesUpTo(src.attrs[u], s, src.NumUsers())
		want := map[int32]bool{}
		for v := 0; v < src.NumUsers(); v++ {
			if stylometry.Jaccard(src.attrs[u], src.attrs[v]) > 0 {
				want[int32(v)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("user %d: %d candidates, want %d", u, len(got), len(want))
		}
		perBand := make([]int, len(x.Bands()))
		for _, c := range got {
			if !want[c] {
				t.Fatalf("user %d: candidate %d shares no attribute", u, c)
			}
			if !s.Marked(c) {
				t.Fatalf("user %d: candidate %d not marked", u, c)
			}
		}
		for v := 0; v < src.NumUsers(); v++ {
			if s.Marked(int32(v)) != want[int32(v)] {
				t.Fatalf("user %d: Marked(%d) = %v, want %v", u, v, s.Marked(int32(v)), want[int32(v)])
			}
			if want[int32(v)] {
				for bi, b := range x.Bands() {
					for _, id := range b.IDs {
						if id == int32(v) {
							perBand[bi]++
						}
					}
				}
			}
		}
		for bi := range x.Bands() {
			if s.BandCandidates(bi) != perBand[bi] {
				t.Fatalf("user %d band %d: BandCandidates = %d, want %d", u, bi, s.BandCandidates(bi), perBand[bi])
			}
		}
	}
}

// TestCandidatesUpToStopsPastLimit pins the capped gather: under a limit
// below the union it returns exactly limit+1 overlap users, each marked;
// at or above the union's size it returns the whole union.
func TestCandidatesUpToStopsPastLimit(t *testing.T) {
	src := randomSource(80, 40, 3, 2)
	x := Build(src, Config{})
	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)
	for u := 0; u < src.NumUsers(); u++ {
		union := len(x.CandidatesUpTo(src.attrs[u], s, src.NumUsers()))
		for _, limit := range []int{0, 1, union / 2, union - 1, union, union + 3} {
			if limit < 0 {
				continue
			}
			got := x.CandidatesUpTo(src.attrs[u], s, limit)
			if want := min(limit+1, union); len(got) != want {
				t.Fatalf("user %d limit %d: %d candidates, want %d (union %d)", u, limit, len(got), want, union)
			}
			for _, c := range got {
				if !s.Marked(c) || stylometry.Jaccard(src.attrs[u], src.attrs[c]) == 0 {
					t.Fatalf("user %d limit %d: candidate %d unmarked or sharing no attribute", u, limit, c)
				}
			}
		}
	}
}

// TestScratchEpochWraparound forces the uint32 epoch to wrap and checks
// marks from before the wrap cannot leak into the post-wrap query.
func TestScratchEpochWraparound(t *testing.T) {
	src := randomSource(10, 20, 2, 5)
	x := Build(src, Config{})
	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)
	x.CandidatesUpTo(src.attrs[0], s, src.NumUsers()) // stamp some users at epoch 1
	s.epoch = ^uint32(0)                              // next begin() wraps to 0 then resets to 1
	got := x.CandidatesUpTo(stylometry.AttrSet{}, s, src.NumUsers())
	if len(got) != 0 {
		t.Fatalf("empty query after wraparound returned %d candidates", len(got))
	}
	for v := 0; v < src.NumUsers(); v++ {
		if s.Marked(int32(v)) {
			t.Fatalf("stale mark on user %d survived the epoch wraparound", v)
		}
	}
}

func TestBandsPartitionAndBound(t *testing.T) {
	src := randomSource(100, 30, 3, 3)
	x := Build(src, Config{Bands: 7})
	seen := make([]bool, src.NumUsers())
	total := 0
	for _, b := range x.Bands() {
		if b.DegLo > b.DegHi || b.WdegLo > b.WdegHi {
			t.Fatalf("inverted band range: %+v", b)
		}
		for i, id := range b.IDs {
			if i > 0 && b.IDs[i-1] >= id {
				t.Fatal("band ids must be strictly ascending")
			}
			if seen[id] {
				t.Fatalf("user %d appears in two bands", id)
			}
			seen[id] = true
			total++
			if d := src.Degree(int(id)); d < b.DegLo || d > b.DegHi {
				t.Fatalf("user %d degree %v outside band [%v, %v]", id, d, b.DegLo, b.DegHi)
			}
			if w := src.WeightedDegree(int(id)); w < b.WdegLo || w > b.WdegHi {
				t.Fatalf("user %d wdeg %v outside band [%v, %v]", id, w, b.WdegLo, b.WdegHi)
			}
		}
	}
	if total != src.NumUsers() {
		t.Fatalf("bands cover %d users, want %d", total, src.NumUsers())
	}
}

// normedSource extends fakeSource with explicit per-user vector norms,
// exercising the NormSource build path.
type normedSource struct {
	fakeSource
	ncs, close, wcl []float64
}

func (f normedSource) NCSNorm(u int) float64   { return f.ncs[u] }
func (f normedSource) CloseNorm(u int) float64 { return f.close[u] }
func (f normedSource) WclNorm(u int) float64   { return f.wcl[u] }

// TestBandNormRanges checks the per-band norm ranges: a NormSource build
// must record exact min/max member norms per band, and a plain Source
// build must record them as unknown ([0, +Inf]) so the score bound
// degrades to the cosine-≤-1 form instead of unsoundly tightening.
func TestBandNormRanges(t *testing.T) {
	base := randomSource(90, 30, 3, 5)
	src := normedSource{
		fakeSource: base,
		ncs:        make([]float64, base.NumUsers()),
		close:      make([]float64, base.NumUsers()),
		wcl:        make([]float64, base.NumUsers()),
	}
	rng := rand.New(rand.NewSource(6))
	for u := range src.ncs {
		if rng.Intn(4) > 0 { // leave ~a quarter at zero, the tightening case
			src.ncs[u] = rng.Float64() * 5
			src.close[u] = rng.Float64() * 2
			src.wcl[u] = rng.Float64()
		}
	}
	x := Build(src, Config{Bands: 6})
	for _, b := range x.Bands() {
		wantRange := func(name string, lo, hi float64, norm func(int) float64) {
			mn, mx := norm(int(b.IDs[0])), norm(int(b.IDs[0]))
			for _, id := range b.IDs[1:] {
				if v := norm(int(id)); v < mn {
					mn = v
				} else if v > mx {
					mx = v
				}
			}
			if lo != mn || hi != mx {
				t.Fatalf("%s range [%v, %v], want [%v, %v]", name, lo, hi, mn, mx)
			}
		}
		wantRange("ncs", b.NCSNormLo, b.NCSNormHi, src.NCSNorm)
		wantRange("close", b.CloseNormLo, b.CloseNormHi, src.CloseNorm)
		wantRange("wcl", b.WclNormLo, b.WclNormHi, src.WclNorm)
	}

	// A source without norms must leave the ranges unknown-wide.
	plain := Build(base, Config{Bands: 6})
	for _, b := range plain.Bands() {
		if b.NCSNormLo != 0 || !math.IsInf(b.NCSNormHi, 1) ||
			b.CloseNormLo != 0 || !math.IsInf(b.CloseNormHi, 1) ||
			b.WclNormLo != 0 || !math.IsInf(b.WclNormHi, 1) {
			t.Fatalf("norm-less build must record unknown ranges: %+v", b)
		}
	}
}

func TestBuildDegenerate(t *testing.T) {
	empty := Build(fakeSource{}, Config{})
	if empty.NumUsers() != 0 || len(empty.Bands()) != 0 {
		t.Fatal("empty source must index nothing")
	}
	es := empty.AcquireScratch()
	if got := empty.CandidatesUpTo(stylometry.AttrSet{Idx: []int{3}}, es, 0); len(got) != 0 {
		t.Fatalf("empty index found %d candidates", len(got))
	}
	empty.ReleaseScratch(es)

	// More bands than users clamps; attribute-free users index fine.
	src := fakeSource{
		attrs: make([]stylometry.AttrSet, 3),
		deg:   []float64{1, 2, 3},
		wdeg:  []float64{1, 2, 3},
	}
	x := Build(src, Config{Bands: 50})
	if len(x.Bands()) != 3 {
		t.Fatalf("bands = %d, want 3 (clamped to users)", len(x.Bands()))
	}
	s := x.AcquireScratch()
	defer x.ReleaseScratch(s)
	if got := x.CandidatesUpTo(stylometry.AttrSet{Idx: []int{0, 1}}, s, 3); len(got) != 0 {
		t.Fatalf("attribute-free users produced candidates: %v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MaxCandidateFrac != 0.5 || c.Bands != 16 {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{MaxCandidateFrac: 0.2, Bands: 4}.WithDefaults()
	if c.MaxCandidateFrac != 0.2 || c.Bands != 4 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}
