package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/ml"
	"dehealth/internal/similarity"
	"dehealth/internal/synth"
)

// fixedForum generates a forum where every user has exactly posts posts.
func fixedForum(users, posts int, seed int64) *corpus.Dataset {
	u := synth.NewUniverse(users, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	members := synth.Members(u, users, rng)
	cfg := synth.WebMDLike(users, seed+2)
	cfg.FixedPosts = posts
	return synth.Generate(cfg, u, members)
}

// world builds a small closed-world split with strong per-user signal.
func world(t *testing.T, users, posts int, auxFrac float64, seed int64) *corpus.Split {
	t.Helper()
	d := fixedForum(users, posts, seed)
	return corpus.SplitClosedWorld(d, auxFrac, rand.New(rand.NewSource(seed+1)))
}

func pipelineFor(split *corpus.Split) *Pipeline {
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	return NewPipelineFromStore(anonS, auxS, cfg)
}

func TestTopKDirect(t *testing.T) {
	split := world(t, 20, 20, 0.5, 3)
	p := pipelineFor(split)
	tk := p.TopK(5, DirectSelection, split.TrueMapping)

	if len(tk.Candidates) != split.Anon.NumUsers() {
		t.Fatalf("candidate sets: %d, want %d", len(tk.Candidates), split.Anon.NumUsers())
	}
	for u, cs := range tk.Candidates {
		if len(cs) != 5 {
			t.Fatalf("user %d has %d candidates, want 5", u, len(cs))
		}
		// Sorted by decreasing score.
		for i := 1; i < len(cs); i++ {
			if cs[i].Score > cs[i-1].Score {
				t.Fatalf("user %d candidates not sorted", u)
			}
		}
	}
	if tk.MaxScore < tk.MinScore {
		t.Error("score extremes inverted")
	}

	// The Top-K phase must be effective on this high-signal world: most
	// true mappings should rank within the top 5 of 20.
	hits, total := 0, 0
	for u := range split.TrueMapping {
		total++
		if r := tk.TrueRank[u]; r > 0 && r <= 5 {
			hits++
		}
	}
	if total == 0 {
		t.Fatal("no overlapping users in split")
	}
	if frac := float64(hits) / float64(total); frac < 0.5 {
		t.Errorf("top-5 success rate %v, want >= 0.5", frac)
	}
}

func TestTopKRankConsistency(t *testing.T) {
	split := world(t, 15, 6, 0.5, 4)
	p := pipelineFor(split)
	tk := p.TopK(split.Aux.NumUsers(), DirectSelection, split.TrueMapping)
	// With K = |V2|, the true mapping must be inside the candidate set, at
	// the position TrueRank says.
	for u, tv := range split.TrueMapping {
		r := tk.TrueRank[u]
		if r < 1 || r > split.Aux.NumUsers() {
			t.Fatalf("rank %d out of range", r)
		}
		if got := tk.Candidates[u][r-1].User; got != tv {
			t.Errorf("user %d: candidate at rank %d is %d, want %d", u, r, got, tv)
		}
	}
}

func TestTopKGraphMatching(t *testing.T) {
	split := world(t, 12, 6, 0.5, 5)
	p := pipelineFor(split)
	tk := p.TopK(3, GraphMatchingSelection, split.TrueMapping)
	for u, cs := range tk.Candidates {
		if len(cs) == 0 || len(cs) > 3 {
			t.Fatalf("user %d has %d candidates, want 1..3", u, len(cs))
		}
		seen := map[int]bool{}
		for _, c := range cs {
			if seen[c.User] {
				t.Fatalf("user %d has duplicate candidate %d", u, c.User)
			}
			seen[c.User] = true
		}
	}
	// Each matching round assigns distinct auxiliary users per round, and
	// over rounds a user's candidates stay distinct (checked above).
}

func TestFilterKeepsBest(t *testing.T) {
	tk := &TopKResult{
		K: 3,
		Candidates: [][]Candidate{
			{{User: 0, Score: 0.9}, {User: 1, Score: 0.5}, {User: 2, Score: 0.1}},
			{{User: 0, Score: 0.05}, {User: 1, Score: 0.04}, {User: 2, Score: 0.03}},
		},
		TrueRank: []int{0, 0},
		MaxScore: 0.9,
		MinScore: 0.03,
	}
	p := &Pipeline{}
	p.Filter(tk, FilterConfig{Epsilon: 0.01, L: 10})
	// User 0: top candidate(s) pass a high threshold; weakest dropped.
	if len(tk.Candidates[0]) == 0 || tk.Candidates[0][0].User != 0 {
		t.Errorf("filter lost the best candidate: %+v", tk.Candidates[0])
	}
	for _, c := range tk.Candidates[0] {
		if c.Score < 0.5 {
			t.Errorf("filter kept weak candidate %+v", c)
		}
	}
	// User 1: all scores cluster at the bottom; the filter keeps the ones
	// above the smallest threshold rather than rejecting everyone.
	if tk.Candidates[1] == nil {
		t.Error("user with low scores wrongly rejected")
	}
}

func TestFilterRejectsBelowEpsilon(t *testing.T) {
	// All candidates of user 0 sit at the global minimum; with epsilon > 0
	// even the smallest threshold excludes them => u -> ⊥.
	tk := &TopKResult{
		K: 2,
		Candidates: [][]Candidate{
			{{User: 0, Score: 0.0}, {User: 1, Score: 0.0}},
			{{User: 0, Score: 1.0}, {User: 1, Score: 0.8}},
		},
		TrueRank: []int{0, 0},
		MaxScore: 1.0,
		MinScore: 0.0,
	}
	p := &Pipeline{}
	p.Filter(tk, FilterConfig{Epsilon: 0.05, L: 10})
	if tk.Candidates[0] != nil {
		t.Errorf("expected rejection, got %+v", tk.Candidates[0])
	}
	if tk.Candidates[1] == nil {
		t.Error("strong user wrongly rejected")
	}
}

func TestRefinedDAClosedWorld(t *testing.T) {
	split := world(t, 15, 24, 0.5, 6)
	p := pipelineFor(split)
	tk := p.TopK(5, DirectSelection, split.TrueMapping)
	res, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:        ClosedWorld,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapping) != split.Anon.NumUsers() {
		t.Fatalf("mapping size %d", len(res.Mapping))
	}
	correct, total := 0, 0
	for u, tv := range split.TrueMapping {
		total++
		if res.Mapping[u] == tv {
			correct++
		}
	}
	// The attack must clear random guessing (1/|V2|) by a wide margin.
	chance := 1 / float64(split.Aux.NumUsers())
	if frac := float64(correct) / float64(total); frac < 4*chance || frac < 0.3 {
		t.Errorf("refined DA accuracy %v (chance %v), want >= max(4x chance, 0.3)", frac, chance)
	}
}

func TestRefinedDARequiresClassifier(t *testing.T) {
	split := world(t, 8, 4, 0.5, 7)
	p := pipelineFor(split)
	tk := p.TopK(3, DirectSelection, nil)
	if _, err := p.RefinedDA(tk, RefineOptions{}); err == nil {
		t.Error("missing classifier factory accepted")
	}
	if _, err := p.StylometryBaseline(RefineOptions{}); err == nil {
		t.Error("baseline without classifier accepted")
	}
}

func TestRefinedDARespectsFilterRejections(t *testing.T) {
	split := world(t, 10, 6, 0.5, 8)
	p := pipelineFor(split)
	tk := p.TopK(3, DirectSelection, nil)
	tk.Candidates[0] = nil // pretend filtering rejected user 0
	res, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mapping[0] != -1 {
		t.Error("rejected user was still de-anonymized")
	}
}

func TestMeanVerificationRejects(t *testing.T) {
	split := world(t, 12, 8, 0.5, 9)
	p := pipelineFor(split)
	tk := p.TopK(4, DirectSelection, split.TrueMapping)
	// With an absurd margin everything is rejected.
	res, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:        MeanVerification,
		R:             1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range res.Mapping {
		if v != -1 {
			t.Errorf("user %d passed an impossible verification", u)
		}
	}
	// With r = 0 at least some accepts happen.
	res0, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:        MeanVerification,
		R:             0,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for _, v := range res0.Mapping {
		if v >= 0 {
			accepts++
		}
	}
	if accepts == 0 {
		t.Error("r=0 verification rejected everyone")
	}
}

func TestFalseAdditionScheme(t *testing.T) {
	split := world(t, 14, 8, 0.5, 10)
	p := pipelineFor(split)
	tk := p.TopK(3, DirectSelection, split.TrueMapping)
	res, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:        FalseAddition,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Decoy classes must never leak into the mapping: every non-⊥ result
	// must come from the user's candidate set.
	for u, v := range res.Mapping {
		if v < 0 {
			continue
		}
		if !tk.Contains(u, v) {
			t.Errorf("user %d mapped to non-candidate %d", u, v)
		}
	}
}

func TestStylometryBaselineRuns(t *testing.T) {
	split := world(t, 10, 8, 0.5, 11)
	p := pipelineFor(split)
	res, err := p.StylometryBaseline(RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range res.Mapping {
		if v < -1 || v >= split.Aux.NumUsers() {
			t.Errorf("user %d mapped out of range: %d", u, v)
		}
	}
}

// TestTopKPanicsOnBadK pins TopK's argument contract: a violation panics
// on the caller's goroutine — where it can be recovered, unlike a crash
// inside a scan worker — with a message naming the offending value, and
// CheckTopK reports the same condition as an error.
func TestTopKPanicsOnBadK(t *testing.T) {
	split := world(t, 6, 4, 0.5, 12)
	p := pipelineFor(split)
	n2 := split.Aux.NumUsers()
	for _, tc := range []struct {
		name   string
		k      int
		method SelectionMethod
		truth  map[int]int
		want   string
	}{
		{"K=0", 0, DirectSelection, nil, "K must be >= 1, got 0"},
		{"truth past the auxiliary side", 3, DirectSelection, map[int]int{1: n2}, fmt.Sprintf("true mapping 1 -> %d", n2)},
		{"negative truth", 3, GraphMatchingSelection, map[int]int{0: -1}, "true mapping 0 -> -1"},
		{"unknown method", 3, SelectionMethod(7), nil, "unknown selection method 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := p.CheckTopK(tc.k, tc.method, tc.truth); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckTopK = %v, want an error containing %q", err, tc.want)
			}
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, tc.want) {
					t.Errorf("TopK panicked with %q, want a message containing %q", msg, tc.want)
				}
			}()
			p.TopK(tc.k, tc.method, tc.truth)
			t.Error("TopK returned")
		})
	}
}
