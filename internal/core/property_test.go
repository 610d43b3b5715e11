package core

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
)

// randomTopK builds a synthetic TopKResult with arbitrary score layouts.
func randomTopK(rng *rand.Rand) *TopKResult {
	n1 := 1 + rng.Intn(8)
	k := 1 + rng.Intn(6)
	tk := &TopKResult{
		K:          k,
		Candidates: make([][]Candidate, n1),
		TrueRank:   make([]int, n1),
		MeanScore:  make([]float64, n1),
		RowMin:     make([]float64, n1),
	}
	mx, mn := -1e18, 1e18
	for u := 0; u < n1; u++ {
		cs := make([]Candidate, k)
		score := rng.Float64() * 2
		for i := range cs {
			cs[i] = Candidate{User: i, Score: score}
			if score > mx {
				mx = score
			}
			if score < mn {
				mn = score
			}
			score -= rng.Float64() * 0.3 // decreasing
		}
		tk.Candidates[u] = cs
		tk.MeanScore[u] = meanScore(cs)
		tk.RowMin[u] = cs[len(cs)-1].Score
	}
	tk.MaxScore, tk.MinScore = mx, mn
	return tk
}

// Property: Algorithm 2 never drops the best-scoring candidate of a
// surviving user, always yields either nil (⊥) or a non-empty subset, and
// never reorders candidates.
func TestFilterProperties(t *testing.T) {
	p := &Pipeline{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tk := randomTopK(rng)
		before := make([][]Candidate, len(tk.Candidates))
		for u, cs := range tk.Candidates {
			before[u] = append([]Candidate(nil), cs...)
		}
		eps := rng.Float64() * 0.05
		l := 2 + rng.Intn(10)
		p.Filter(tk, FilterConfig{Epsilon: eps, L: l})
		for u, cs := range tk.Candidates {
			if cs == nil {
				continue // rejected is fine
			}
			if len(cs) == 0 {
				return false // must be nil or non-empty
			}
			// Subset of the originals, same relative order.
			j := 0
			for _, c := range cs {
				found := false
				for ; j < len(before[u]); j++ {
					if before[u][j] == c {
						found = true
						j++
						break
					}
				}
				if !found {
					return false
				}
			}
			// The surviving set contains the original best candidate.
			if cs[0] != before[u][0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Error(err)
	}
}

// Property: verifyMean is monotone in the score — raising s_uv never flips
// accept to reject — and r = 0 accepts any score at or above the mean.
func TestVerifyMeanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rowMin := rng.NormFloat64()
		mean := rowMin + rng.Float64()
		r := rng.Float64() * 2
		s1 := rowMin + rng.Float64()*2
		s2 := s1 + rng.Float64() // s2 >= s1
		if verifyMean(s1, mean, rowMin, r) && !verifyMean(s2, mean, rowMin, r) {
			return false
		}
		if s1 >= mean && !verifyMean(s1, mean, rowMin, 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Error(err)
	}
}

// Property: topCandidates returns k distinct, sorted entries that are the
// true top-k of the row.
func TestTopCandidatesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(n)
		cs := topCandidates(row, k)
		if len(cs) != k {
			return false
		}
		seen := map[int]bool{}
		for i, c := range cs {
			if seen[c.User] || row[c.User] != c.Score {
				return false
			}
			seen[c.User] = true
			if i > 0 && c.Score > cs[i-1].Score {
				return false
			}
		}
		// No excluded column beats the k-th selected score.
		kth := cs[len(cs)-1].Score
		better := 0
		for _, s := range row {
			if s > kth {
				better++
			}
		}
		return better <= k-1
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Error(err)
	}
}

// Property: rankOf is consistent with topCandidates — the candidate at
// position i has rank i+1.
func TestRankOfProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(rng.Intn(5)) // ties likely
		}
		cs := topCandidates(row, n)
		for i, c := range cs {
			if rankOf(row, c.User) != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Error(err)
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
