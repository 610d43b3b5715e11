package similarity

import (
	"math/rand"
	"testing"

	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
)

// TestScoreRangeBatchParityRandomWorlds is the batched kernel's bit-identity
// guarantee: on randomized synthetic worlds, ScoreRangeBatch must equal the
// retained naive reference ScoreSlow exactly — not approximately — for
// every (query, aux) pair, across mixed batch widths (including Q=1 and a
// batch wider than the query population wraps around) and several
// similarity configurations.
func TestScoreRangeBatchParityRandomWorlds(t *testing.T) {
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
			rng := rand.New(rand.NewSource(seed * 13))
			var b BatchProfile
			for _, q := range []int{1, 3, 8, 17} {
				users := make([]int, q)
				for i := range users {
					users[i] = rng.Intn(n1)
				}
				out := make([][]float64, q)
				for i := range out {
					out[i] = make([]float64, n2)
				}
				s.PrepareBatch(users, &b)
				if b.Len() != q {
					t.Fatalf("BatchProfile.Len() = %d, want %d", b.Len(), q)
				}
				s.ScoreRangeBatch(&b, 0, n2, out)
				for i, u := range users {
					if b.User(i) != u {
						t.Fatalf("BatchProfile.User(%d) = %d, want %d", i, b.User(i), u)
					}
					for v := 0; v < n2; v++ {
						if want := s.ScoreSlow(u, v); out[i][v] != want {
							t.Fatalf("seed %d cfg %+v Q=%d: batch[%d][%d] = %v, ScoreSlow = %v",
								seed, cfg, q, i, v, out[i][v], want)
						}
					}
				}
			}
		}
	}
}

// TestScoreRangeBatchWindowParity checks the batched kernel through a shard
// window against the base scorer on the window's global range, over
// sub-ranges that exercise nonzero lo (the blocked scan shape).
func TestScoreRangeBatchWindowParity(t *testing.T) {
	g1 := synth.SparseAttrUDA(20, 5, 120, 21)
	g2 := synth.SparseAttrUDA(33, 5, 120, 22)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	lo, hi := 7, 29
	w := s.Shard(lo, hi)
	users := []int{0, 5, 11, 3, 0, 19}
	var b BatchProfile
	w.PrepareBatch(users, &b)
	for _, blk := range [][2]int{{0, hi - lo}, {3, 17}, {17, hi - lo}} {
		n := blk[1] - blk[0]
		out := make([][]float64, len(users))
		for i := range out {
			out[i] = make([]float64, n)
		}
		w.ScoreRangeBatch(&b, blk[0], blk[1], out)
		for i, u := range users {
			for j := 0; j < n; j++ {
				if want := s.Score(u, lo+blk[0]+j); out[i][j] != want {
					t.Fatalf("window batch [%d,%d): q=%d j=%d = %v, base Score = %v",
						blk[0], blk[1], i, j, out[i][j], want)
				}
			}
		}
	}
}

// TestScoreRangeBatchAppended extends a world through AppendNode + SyncAnon
// — the serving-path ingestion shape — and checks a batch mixing original
// and appended query users scores bit-identically to ScoreSlow, on the
// base scorer and through a shard window.
func TestScoreRangeBatchAppended(t *testing.T) {
	g1 := synth.SparseAttrUDA(30, 6, 150, 9)
	g2 := synth.SparseAttrUDA(30, 6, 150, 10)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	lo, hi := 10, 25
	w := s.Shard(lo, hi)

	rng := rand.New(rand.NewSource(11))
	n0 := g1.NumNodes()
	for i := 0; i < 3; i++ {
		attrs := stylometry.AttrSet{Idx: []int{i, 50 + i}, Weight: []int{1 + i, 2}}
		u := g1.AppendNode(attrs, [][]float64{{1}})
		for e := 0; e < 1+i; e++ {
			g1.AddEdge(u, rng.Intn(n0), 1+float64(rng.Intn(3)))
		}
	}
	if added := s.SyncAnon(); added != 3 {
		t.Fatalf("SyncAnon added %d, want 3", added)
	}

	users := []int{0, n0, 5, n0 + 1, n0 + 2} // mixed original + appended
	n2 := g2.NumNodes()
	out := make([][]float64, len(users))
	for i := range out {
		out[i] = make([]float64, n2)
	}
	var b BatchProfile
	s.PrepareBatch(users, &b)
	s.ScoreRangeBatch(&b, 0, n2, out)
	for i, u := range users {
		for v := 0; v < n2; v++ {
			if want := s.ScoreSlow(u, v); out[i][v] != want {
				t.Fatalf("appended batch: q=%d(user %d) v=%d = %v, ScoreSlow = %v", i, u, v, out[i][v], want)
			}
		}
	}

	wout := make([][]float64, len(users))
	for i := range wout {
		wout[i] = make([]float64, hi-lo)
	}
	var wb BatchProfile
	w.PrepareBatch(users, &wb)
	w.ScoreRangeBatch(&wb, 0, hi-lo, wout)
	for i, u := range users {
		for j := 0; j < hi-lo; j++ {
			if want := s.ScoreSlow(u, lo+j); wout[i][j] != want {
				t.Fatalf("appended window batch: q=%d(user %d) j=%d = %v, ScoreSlow = %v", i, u, j, wout[i][j], want)
			}
		}
	}
}

// TestScoreRangeBatchZeroAllocs is the batched kernel's allocation
// contract: re-preparing a reused BatchProfile and streaming the full aux
// range through ScoreRangeBatch must allocate nothing once the profile's
// capacity is warm — the pooled shard scratch depends on it.
func TestScoreRangeBatchZeroAllocs(t *testing.T) {
	g1 := synth.SparseAttrUDA(25, 5, 150, 31)
	g2 := synth.SparseAttrUDA(40, 5, 150, 32)
	s := NewScorer(g1, g2, Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 4})
	n2 := g2.NumNodes()
	const q = 8
	users := make([]int, q)
	out := make([][]float64, q)
	for i := range out {
		out[i] = make([]float64, n2)
	}
	var b BatchProfile
	s.PrepareBatch(users, &b) // warm capacity and lazy graph state (Freeze)
	off := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := range users {
			users[i] = (off + i) % g1.NumNodes()
		}
		off++
		s.PrepareBatch(users, &b)
		s.ScoreRangeBatch(&b, 0, n2, out)
	})
	if allocs != 0 {
		t.Fatalf("PrepareBatch+ScoreRangeBatch allocates %v times per batch, want 0", allocs)
	}
}
