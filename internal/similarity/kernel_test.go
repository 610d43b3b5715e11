package similarity

import (
	"math/rand"
	"testing"

	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
)

// TestRatioSim pins the edge cases of the min/max ratio term: both zero
// (isolated nodes are identical), equal nonzero, one zero, and plain
// ratios in both argument orders.
func TestRatioSim(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 1},   // both isolated
		{3, 3, 1},   // equal nonzero
		{0, 5, 0},   // one isolated
		{5, 0, 0},   // symmetric
		{2, 4, 0.5}, // plain ratio
		{4, 2, 0.5}, // order-independent
	}
	for _, tc := range tests {
		if got := ratioSim(tc.a, tc.b); got != tc.want {
			t.Errorf("ratioSim(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// oneHot returns cfg's three single-component weightings: under
// {C1: 1}, ScoreWith is 1*d + 0*ds + 0*a, which is d exactly (every
// component is finite and non-negative), so a component's production
// expression can be compared with its *SimSlow reference bit for bit.
func oneHot(landmarks int) [3]Config {
	return [3]Config{
		{C1: 1, Landmarks: landmarks},
		{C2: 1, Landmarks: landmarks},
		{C3: 1, Landmarks: landmarks},
	}
}

// componentSlow returns the naive reference of component c (0 degree,
// 1 distance, 2 attribute) for the pair.
func (s *Scorer) componentSlow(c, u, v int) float64 {
	switch c {
	case 0:
		return s.degreeSimSlow(u, v)
	case 1:
		return s.distanceSimSlow(u, v)
	}
	return s.attrSimSlow(u, v)
}

// TestFlatKernelParityRandomWorlds is the tentpole bit-identity guarantee:
// on randomized synthetic worlds, Score, ScoreWith and ScoreRange (the
// per-pair kernel) must equal the retained naive reference ScoreSlow
// exactly — not approximately — for every pair, per component (through
// one-hot weightings), and across several similarity configurations.
func TestFlatKernelParityRandomWorlds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g1 := synth.SparseAttrUDA(40, 8, 200, seed)
		g2 := synth.SparseAttrUDA(55, 8, 200, seed+100)
		for _, cfg := range []Config{
			{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5},
			{C1: 1, C2: 0, C3: 0, Landmarks: 3},
			{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 7},
		} {
			s := NewScorer(g1, g2, cfg)
			n1, n2 := g1.NumNodes(), g2.NumNodes()
			row := make([]float64, n2)
			var p QueryProfile
			for u := 0; u < n1; u++ {
				s.PrepareQuery(u, &p)
				s.ScoreRange(&p, 0, n2, row)
				for v := 0; v < n2; v++ {
					want := s.ScoreSlow(u, v)
					if got := s.Score(u, v); got != want {
						t.Fatalf("seed %d cfg %+v: Score(%d,%d) = %v, ScoreSlow = %v", seed, cfg, u, v, got, want)
					}
					if row[v] != want {
						t.Fatalf("seed %d cfg %+v: ScoreRange[%d][%d] = %v, ScoreSlow = %v", seed, cfg, u, v, row[v], want)
					}
				}
			}
			for c, hot := range oneHot(cfg.Landmarks) {
				sc := s.Reweighted(hot)
				for u := 0; u < n1; u++ {
					sc.PrepareQuery(u, &p)
					for v := 0; v < n2; v++ {
						if got, want := sc.ScoreWith(&p, v), s.componentSlow(c, u, v); got != want {
							t.Fatalf("seed %d component %d: ScoreWith(%d,%d) = %v, slow reference %v", seed, c, u, v, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFlatKernelParityAppended extends a world through AppendNode +
// SyncAnon — the serving-path ingestion shape — and checks the appended
// nodes score bit-identically to ScoreSlow through the flat kernel, on
// the base scorer and through a shard window.
func TestFlatKernelParityAppended(t *testing.T) {
	g1 := synth.SparseAttrUDA(30, 6, 150, 9)
	g2 := synth.SparseAttrUDA(30, 6, 150, 10)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	lo, hi := 10, 25
	w := s.Shard(lo, hi)

	rng := rand.New(rand.NewSource(11))
	n0 := g1.NumNodes()
	for i := 0; i < 3; i++ {
		attrs := stylometry.AttrSet{Idx: []int32{int32(i), int32(50 + i)}, Weight: []int32{int32(1 + i), 2}}
		u := g1.AppendNode(attrs, [][]float64{{1}})
		for e := 0; e < 1+i; e++ {
			g1.AddEdge(u, rng.Intn(n0), 1+float64(rng.Intn(3)))
		}
	}
	if added := s.SyncAnon(); added != 3 {
		t.Fatalf("SyncAnon added %d, want 3", added)
	}

	var p QueryProfile
	for u := n0; u < g1.NumNodes(); u++ {
		s.PrepareQuery(u, &p)
		for v := 0; v < g2.NumNodes(); v++ {
			if got, want := s.ScoreWith(&p, v), s.ScoreSlow(u, v); got != want {
				t.Fatalf("appended node %d: ScoreWith(%d) = %v, ScoreSlow = %v", u, v, got, want)
			}
		}
		for j := 0; j < hi-lo; j++ {
			if got, want := w.Score(u, j), s.Score(u, lo+j); got != want {
				t.Fatalf("appended node %d through window: Score(%d) = %v, base = %v", u, j, got, want)
			}
		}
	}
}

// TestScoreRangeWindowParity checks the row kernel through a shard window
// equals the base scorer's scores on the window's global range.
func TestScoreRangeWindowParity(t *testing.T) {
	g1 := synth.SparseAttrUDA(20, 5, 120, 21)
	g2 := synth.SparseAttrUDA(33, 5, 120, 22)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	lo, hi := 7, 29
	w := s.Shard(lo, hi)
	out := make([]float64, hi-lo)
	var p QueryProfile
	for u := 0; u < g1.NumNodes(); u++ {
		w.PrepareQuery(u, &p)
		w.ScoreRange(&p, 0, hi-lo, out)
		for j, got := range out {
			if want := s.Score(u, lo+j); got != want {
				t.Fatalf("window ScoreRange(%d)[%d] = %v, base Score = %v", u, j, got, want)
			}
		}
	}
}

// TestScoreRangeZeroAllocs is the kernel's allocation contract: preparing
// a query and streaming a full row through ScoreRange must allocate
// nothing — the shard scan path's per-row cost is pure arithmetic over
// the flat caches.
func TestScoreRangeZeroAllocs(t *testing.T) {
	g1 := synth.SparseAttrUDA(25, 5, 150, 31)
	g2 := synth.SparseAttrUDA(40, 5, 150, 32)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	n2 := g2.NumNodes()
	out := make([]float64, n2)
	var p QueryProfile
	u := 0
	s.PrepareQuery(u, &p) // warm lazy graph state (Freeze)
	allocs := testing.AllocsPerRun(200, func() {
		s.PrepareQuery(u, &p)
		s.ScoreRange(&p, 0, n2, out)
		u = (u + 1) % g1.NumNodes()
	})
	if allocs != 0 {
		t.Fatalf("PrepareQuery+ScoreRange allocates %v times per row, want 0", allocs)
	}
}
