package bipartite

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matchingWeight sums the weights of the matching (left->right) under w.
func matchingWeight(w [][]float64, match []int) float64 {
	var total float64
	for i, j := range match {
		if j >= 0 {
			total += w[i][j]
		}
	}
	return total
}

// bruteForceBest returns the maximum total weight over all matchings that
// saturate the smaller side (n <= 8 feasible).
func bruteForceBest(w [][]float64) float64 {
	n, m := len(w), len(w[0])
	if n <= m {
		used := make([]bool, m)
		return bruteRows(w, 0, used)
	}
	// Transpose.
	wt := make([][]float64, m)
	for j := range wt {
		wt[j] = make([]float64, n)
		for i := 0; i < n; i++ {
			wt[j][i] = w[i][j]
		}
	}
	used := make([]bool, n)
	return bruteRows(wt, 0, used)
}

func bruteRows(w [][]float64, row int, used []bool) float64 {
	if row == len(w) {
		return 0
	}
	best := math.Inf(-1)
	for j := range w[row] {
		if used[j] {
			continue
		}
		used[j] = true
		if v := w[row][j] + bruteRows(w, row+1, used); v > best {
			best = v
		}
		used[j] = false
	}
	return best
}

func TestMaxWeightMatchingKnown(t *testing.T) {
	w := [][]float64{
		{10, 1},
		{1, 10},
	}
	m := MaxWeightMatching(w)
	if m[0] != 0 || m[1] != 1 {
		t.Errorf("matching = %v, want [0 1]", m)
	}
	// Anti-diagonal optimum.
	w2 := [][]float64{
		{1, 10},
		{10, 1},
	}
	m2 := MaxWeightMatching(w2)
	if m2[0] != 1 || m2[1] != 0 {
		t.Errorf("matching = %v, want [1 0]", m2)
	}
}

func TestMaxWeightMatchingGreedyTrap(t *testing.T) {
	// Greedy picks (0,0)=9 then (1,1)=1 => 10; optimum is 8+8=16.
	w := [][]float64{
		{9, 8},
		{8, 1},
	}
	m := MaxWeightMatching(w)
	if matchingWeight(w, m) != 16 {
		t.Errorf("exact matching weight = %v, want 16 (matching %v)", matchingWeight(w, m), m)
	}
}

func TestMaxWeightMatchingRectangular(t *testing.T) {
	// More columns than rows: every row matched.
	w := [][]float64{
		{1, 5, 3},
		{5, 1, 2},
	}
	m := MaxWeightMatching(w)
	if m[0] != 1 || m[1] != 0 {
		t.Errorf("matching = %v", m)
	}
	// More rows than columns: one row unmatched.
	wt := [][]float64{
		{1, 5},
		{5, 1},
		{4, 4},
	}
	mt := MaxWeightMatching(wt)
	matched := 0
	seen := map[int]bool{}
	for _, j := range mt {
		if j >= 0 {
			matched++
			if seen[j] {
				t.Fatalf("column %d matched twice: %v", j, mt)
			}
			seen[j] = true
		}
	}
	if matched != 2 {
		t.Errorf("matched %d rows, want 2: %v", matched, mt)
	}
}

func TestMaxWeightMatchingEmpty(t *testing.T) {
	if MaxWeightMatching(nil) != nil {
		t.Error("empty input must return nil")
	}
}

func TestNegativeWeights(t *testing.T) {
	w := [][]float64{
		{-1, -10},
		{-10, -1},
	}
	m := MaxWeightMatching(w)
	if matchingWeight(w, m) != -2 {
		t.Errorf("weight = %v, want -2", matchingWeight(w, m))
	}
}

// Property: the Hungarian result equals brute force on random small
// matrices.
func TestMatchingOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				w[i][j] = math.Round(rng.Float64()*100) / 10
			}
		}
		got := matchingWeight(w, MaxWeightMatching(w))
		want := bruteForceBest(w)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: matchings are injective and within bounds.
func TestMatchingValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				w[i][j] = rng.NormFloat64()
			}
		}
		for _, match := range [][]int{MaxWeightMatching(w), GreedyMatching(w)} {
			if len(match) != n {
				return false
			}
			seen := map[int]bool{}
			matched := 0
			for _, j := range match {
				if j < -1 || j >= m {
					return false
				}
				if j >= 0 {
					if seen[j] {
						return false
					}
					seen[j] = true
					matched++
				}
			}
			if want := minInt(n, m); matched != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: greedy achieves at least half the optimal weight for
// non-negative weights.
func TestGreedyHalfApproxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, m)
			for j := range w[i] {
				w[i][j] = rng.Float64() * 10
			}
		}
		greedy := matchingWeight(w, GreedyMatching(w))
		opt := bruteForceBest(w)
		return greedy >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
