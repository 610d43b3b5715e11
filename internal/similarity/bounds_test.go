package similarity

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// TestRatioSimBound checks the bound against the exact ratioSim over
// random values and intervals, including endpoints and zeros.
func TestRatioSimBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := float64(rng.Intn(20))
		lo := float64(rng.Intn(20))
		hi := lo + float64(rng.Intn(20))
		bound := RatioSimBound(a, lo, hi)
		for _, b := range []float64{lo, hi, (lo + hi) / 2, lo + 1, hi - 1} {
			if b < lo || b > hi {
				continue
			}
			if got := ratioSim(a, b); got > bound+1e-15 {
				t.Logf("ratioSim(%v, %v) = %v above bound %v over [%v, %v]", a, b, got, bound, lo, hi)
				return false
			}
		}
		return bound <= 1
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Error(err)
	}
}

// boundNoNorms is ScoreBoundBand over a band whose norm ranges are unknown
// (+Inf maxima): each cosine bounded by 1, or by 0 when the query side's
// own vector is all-zero.
func boundNoNorms(s *Scorer, u int, degLo, degHi, wdegLo, wdegHi float64) float64 {
	var p QueryProfile
	s.PrepareQuery(u, &p)
	inf := math.Inf(1)
	return s.ScoreBoundBand(&p, BandStats{
		DegLo: degLo, DegHi: degHi, WdegLo: wdegLo, WdegHi: wdegHi,
		NCSNormHi: inf, CloseNormHi: inf, WclNormHi: inf,
	})
}

// TestScoreBoundNoAttrCoversScores is the safety property the pruned
// query path rests on: for every pair (u, v) with zero attribute overlap,
// Score(u, v) must not exceed the bound computed from v's exact degree
// and weighted degree (the tightest band containing v). Exercised over a
// real scorer so the cosine and ratio terms take their production values.
func TestScoreBoundNoAttrCoversScores(t *testing.T) {
	g1, g2 := twoForumWorld()
	// Zero one side's attribute sets so every pair has zero overlap; the
	// structural terms stay real.
	for u := range g2.Attrs {
		g2.Attrs[u].Idx = nil
		g2.Attrs[u].Weight = nil
	}
	for _, cfg := range []Config{
		{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2},
		{C1: 1, C2: 0, C3: 0, Landmarks: 2},
		{C1: 0, C2: 1, C3: 0, Landmarks: 2},
		{C1: 0, C2: 0, C3: 1, Landmarks: 2},
		{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 2},
	} {
		s := NewScorer(g1, g2, cfg)
		for u := 0; u < g1.NumNodes(); u++ {
			for v := 0; v < g2.NumNodes(); v++ {
				d, wd := s.AuxDegree(v), s.AuxWeightedDegree(v)
				bound := boundNoNorms(s, u, d, d, wd, wd)
				if got := s.Score(u, v); got > bound {
					t.Fatalf("cfg %+v: Score(%d,%d) = %v above bound %v", cfg, u, v, got, bound)
				}
			}
		}
	}
}

// TestScoreBoundWideBands widens the band around v and checks the bound
// only grows (a wider band must stay an upper bound for its members).
func TestScoreBoundWideBands(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.2, C2: 0.2, C3: 0.6, Landmarks: 2})
	for u := 0; u < g1.NumNodes(); u++ {
		for v := 0; v < g2.NumNodes(); v++ {
			d, wd := s.AuxDegree(v), s.AuxWeightedDegree(v)
			tight := boundNoNorms(s, u, d, d, wd, wd)
			wide := boundNoNorms(s, u, math.Max(0, d-3), d+3, math.Max(0, wd-3), wd+3)
			if wide < tight {
				t.Fatalf("widening the band shrank the bound: %v < %v", wide, tight)
			}
		}
	}
}

// TestScoreBoundBandCoversScores is the safety property of the
// norm-tightened band bound: with each auxiliary user's exact degree,
// weighted degree and vector norms as a singleton band, the bound must
// still cover the exact score of every zero-attribute-overlap pair — and
// must be no looser than the same band with unknown norm ranges.
func TestScoreBoundBandCoversScores(t *testing.T) {
	g1, g2 := twoForumWorld()
	for u := range g2.Attrs {
		g2.Attrs[u].Idx = nil
		g2.Attrs[u].Weight = nil
	}
	for _, cfg := range []Config{
		{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2},
		{C1: 1, C2: 0, C3: 0, Landmarks: 2},
		{C1: 0, C2: 1, C3: 0, Landmarks: 2},
		{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 2},
	} {
		s := NewScorer(g1, g2, cfg)
		var p QueryProfile
		for u := 0; u < g1.NumNodes(); u++ {
			s.PrepareQuery(u, &p)
			for v := 0; v < g2.NumNodes(); v++ {
				d, wd := s.AuxDegree(v), s.AuxWeightedDegree(v)
				b := BandStats{
					DegLo: d, DegHi: d, WdegLo: wd, WdegHi: wd,
					NCSNormLo: s.AuxNCSNorm(v), NCSNormHi: s.AuxNCSNorm(v),
					CloseNormLo: s.AuxCloseNorm(v), CloseNormHi: s.AuxCloseNorm(v),
					WclNormLo: s.AuxWclNorm(v), WclNormHi: s.AuxWclNorm(v),
				}
				bound := s.ScoreBoundBand(&p, b)
				if got := s.Score(u, v); got > bound {
					t.Fatalf("cfg %+v: Score(%d,%d) = %v above band bound %v", cfg, u, v, got, bound)
				}
				if loose := boundNoNorms(s, u, d, d, wd, wd); bound > loose {
					t.Fatalf("cfg %+v: norm-tightened bound %v looser than norm-less %v", cfg, bound, loose)
				}
			}
		}
	}
}

// TestScoreBoundBandZeroNorms pins the actual tightening: a band of
// isolated, landmark-unreachable users (all vector norms zero) must bound
// strictly below the norm-less bound — every cosine term drops out,
// leaving only the ratio terms.
func TestScoreBoundBandZeroNorms(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 2})
	var p QueryProfile
	s.PrepareQuery(0, &p)
	zero := BandStats{DegLo: 1, DegHi: 2, WdegLo: 1, WdegHi: 2}
	loose := boundNoNorms(s, 0, 1, 2, 1, 2)
	tight := s.ScoreBoundBand(&p, zero)
	if tight >= loose {
		t.Fatalf("zero-norm band bound %v not strictly below norm-less bound %v", tight, loose)
	}
	// The dropped headroom is exactly the three cosine terms: only the two
	// ratio bounds survive.
	want := inflate(0.3 * (RatioSimBound(p.deg, 1, 2) + RatioSimBound(p.wdeg, 1, 2)))
	if tight != want {
		t.Fatalf("zero-norm bound = %v, want %v", tight, want)
	}
}

// TestPruneSafe pins the negative-weight guard: unsafe configurations
// must refuse to certify anything.
func TestPruneSafe(t *testing.T) {
	g1, g2 := twoForumWorld()
	safe := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 2})
	if !safe.PruneSafe() {
		t.Fatal("non-negative weights must be prune-safe")
	}
	unsafe := NewScorer(g1, g2, Config{C1: -0.1, C2: 0.5, C3: 0.6, Landmarks: 2})
	if unsafe.PruneSafe() {
		t.Fatal("negative weight must not be prune-safe")
	}
	if b := boundNoNorms(unsafe, 0, 0, 10, 0, 10); !math.IsInf(b, 1) {
		t.Fatalf("unsafe scorer bound = %v, want +Inf", b)
	}
}

// TestAuxAccessorsMatchGraph pins the accessor contract: the frozen
// aux-side reads the index is built from must equal live graph reads.
func TestAuxAccessorsMatchGraph(t *testing.T) {
	g1, g2 := twoForumWorld()
	s := NewScorer(g1, g2, DefaultConfig())
	for v := 0; v < g2.NumNodes(); v++ {
		if s.AuxDegree(v) != float64(g2.Degree(v)) {
			t.Fatalf("AuxDegree(%d) = %v, graph has %d", v, s.AuxDegree(v), g2.Degree(v))
		}
		if s.AuxWeightedDegree(v) != g2.WeightedDegree(v) {
			t.Fatalf("AuxWeightedDegree(%d) mismatch", v)
		}
		if got, want := s.AuxAttrs(v).Len(), g2.Attrs[v].Len(); got != want {
			t.Fatalf("AuxAttrs(%d) has %d attrs, graph has %d", v, got, want)
		}
	}
	for u := 0; u < g1.NumNodes(); u++ {
		if got, want := s.AnonAttrs(u).Len(), g1.Attrs[u].Len(); got != want {
			t.Fatalf("AnonAttrs(%d) has %d attrs, graph has %d", u, got, want)
		}
	}
	// Accessors on a shard window must read the same global values.
	win := s.Shard(1, 3)
	for j := 0; j < 2; j++ {
		if win.AuxDegree(j) != s.AuxDegree(1+j) || win.AuxWeightedDegree(j) != s.AuxWeightedDegree(1+j) {
			t.Fatalf("window accessor %d drifted from global", j)
		}
	}
}

// quickConfig is the configuration of this package's testing/quick
// properties: maxCount inputs drawn from a fixed seed, so every run checks
// the same ones. DEHEALTH_QUICK_SEED names another seed; CI reruns the
// properties under a fresh, printed one.
func quickConfig(maxCount int) *quick.Config {
	seed, err := strconv.ParseInt(os.Getenv("DEHEALTH_QUICK_SEED"), 10, 64)
	if err != nil {
		seed = 1
	}
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}
