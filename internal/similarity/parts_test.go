package similarity

import (
	"testing"

	"dehealth/internal/synth"
)

// TestPartsRoundTripParity is the scorer half of the snapshot bit-identity
// contract: a scorer rebuilt from its own Parts must score every pair
// exactly — not approximately — like the original, across configurations
// and through shard windows.
func TestPartsRoundTripParity(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		g1 := synth.SparseAttrUDA(40, 8, 200, seed)
		g2 := synth.SparseAttrUDA(55, 8, 200, seed+100)
		for _, cfg := range []Config{
			{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5},
			{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 7},
		} {
			s := NewScorer(g1, g2, cfg)
			r, err := NewScorerFromParts(g1, g2, cfg, s.Parts())
			if err != nil {
				t.Fatalf("seed %d cfg %+v: NewScorerFromParts: %v", seed, cfg, err)
			}
			n1, n2 := g1.NumNodes(), g2.NumNodes()
			wantRow := make([]float64, n2)
			gotRow := make([]float64, n2)
			var wp, gp QueryProfile
			for u := 0; u < n1; u++ {
				s.PrepareQuery(u, &wp)
				r.PrepareQuery(u, &gp)
				s.ScoreRange(&wp, 0, n2, wantRow)
				r.ScoreRange(&gp, 0, n2, gotRow)
				for v := 0; v < n2; v++ {
					if gotRow[v] != wantRow[v] {
						t.Fatalf("seed %d cfg %+v: restored ScoreRange(%d,%d) = %v, original %v", seed, cfg, u, v, gotRow[v], wantRow[v])
					}
					if got, want := r.Score(u, v), s.Score(u, v); got != want {
						t.Fatalf("seed %d cfg %+v: restored Score(%d,%d) = %v, original %v", seed, cfg, u, v, got, want)
					}
				}
			}
			// Window parity: a shard over the restored scorer must agree with
			// the same shard over the original.
			lo, hi := n2/3, 2*n2/3
			sw, rw := s.Shard(lo, hi), r.Shard(lo, hi)
			for u := 0; u < n1; u++ {
				sw.PrepareQuery(u, &wp)
				rw.PrepareQuery(u, &gp)
				sw.ScoreRange(&wp, 0, hi-lo, wantRow[:hi-lo])
				rw.ScoreRange(&gp, 0, hi-lo, gotRow[:hi-lo])
				for v := 0; v < hi-lo; v++ {
					if gotRow[v] != wantRow[v] {
						t.Fatalf("seed %d: restored window score (%d,%d) drifted", seed, u, v)
					}
				}
			}
		}
	}
}

// TestPartsRejectsShapeMismatch pins the restore-side validation: parts
// whose flat arrays do not tile the graphs are rejected instead of
// producing a scorer that reads out of bounds.
func TestPartsRejectsShapeMismatch(t *testing.T) {
	g1 := synth.SparseAttrUDA(20, 5, 120, 3)
	g2 := synth.SparseAttrUDA(25, 5, 120, 4)
	cfg := Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4}
	s := NewScorer(g1, g2, cfg)

	break1 := s.Parts()
	break1.Close = break1.Close[:len(break1.Close)-1]
	if _, err := NewScorerFromParts(g1, g2, cfg, break1); err == nil {
		t.Error("short Close matrix accepted")
	}

	break2 := s.Parts()
	break2.AuxDeg = break2.AuxDeg[:len(break2.AuxDeg)-1]
	if _, err := NewScorerFromParts(g1, g2, cfg, break2); err == nil {
		t.Error("short AuxDeg accepted")
	}

	break3 := s.Parts()
	break3.Landmarks = append([]int{}, break3.Landmarks...)
	break3.Landmarks[0] = g1.NumNodes() // out of range
	if _, err := NewScorerFromParts(g1, g2, cfg, break3); err == nil {
		t.Error("out-of-range landmark accepted")
	}

	break4 := s.Parts()
	break4.NCSOff = append([]int{}, break4.NCSOff...)
	break4.NCSOff[1] = len(break4.NCS) + 1 // breaks monotone coverage
	if _, err := NewScorerFromParts(g1, g2, cfg, break4); err == nil {
		t.Error("broken NCS offsets accepted")
	}
}
