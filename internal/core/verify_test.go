package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dehealth/internal/ml"
)

func TestSigmaVerifyKnown(t *testing.T) {
	// Predicted class at 10, others at 1 and 2 (mean 1.5, sd 0.5): the
	// margin is 17 sigmas.
	if !sigmaVerify([]float64{10, 1, 2}, 0, 2) {
		t.Error("clear winner rejected")
	}
	// Flat scores: only accepted at sigma 0 if strictly above the mean.
	if sigmaVerify([]float64{1, 1, 1}, 0, 0) {
		t.Error("tie accepted")
	}
	if !sigmaVerify([]float64{1.1, 1, 1}, 0, 0) {
		t.Error("strict winner over zero-variance distractors rejected")
	}
	// Narrow margin fails a high threshold.
	if sigmaVerify([]float64{2.1, 2.0, 1.9, 2.05}, 0, 3) {
		t.Error("weak margin accepted at 3 sigma")
	}
	// Degenerate candidate sets accept.
	if !sigmaVerify([]float64{5}, 0, 10) {
		t.Error("single-class set must accept")
	}
}

// Property: sigmaVerify is monotone in the predicted score and
// anti-monotone in the threshold.
func TestSigmaVerifyProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		totals := make([]float64, n)
		for i := range totals {
			totals[i] = rng.Float64() * 10
		}
		sigma := rng.Float64() * 3
		if sigmaVerify(totals, 0, sigma) {
			// Raising the winner's score cannot flip to reject.
			totals[0] += rng.Float64() * 5
			if !sigmaVerify(totals, 0, sigma) {
				return false
			}
			// Lowering the threshold cannot flip to reject.
			if !sigmaVerify(totals, 0, sigma/2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Error(err)
	}
}

func TestDistractorlessVerifyKnown(t *testing.T) {
	a := [][]float64{{1, 0, 0}, {1, 0, 0}}
	same := [][]float64{{1, 0, 0}}
	orth := [][]float64{{0, 1, 0}}
	if !distractorlessVerify(a, same, 0.99) {
		t.Error("identical profiles rejected")
	}
	if distractorlessVerify(a, orth, 0.5) {
		t.Error("orthogonal profiles accepted")
	}
	if distractorlessVerify(nil, same, 0) {
		t.Error("empty anonymized profile accepted")
	}
	if distractorlessVerify(a, nil, 0) {
		t.Error("empty author profile accepted")
	}
}

func TestSigmaSchemeEndToEnd(t *testing.T) {
	split := world(t, 12, 10, 0.5, 21)
	p := pipelineFor(split)
	tk := p.TopK(4, DirectSelection, split.TrueMapping)

	// Impossible sigma: everything rejected.
	res, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:        SigmaVerification,
		Sigma:         1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range res.Mapping {
		if v != -1 {
			t.Errorf("user %d passed an impossible sigma test", u)
		}
	}
	// Negative sigma accepts everything the classifier maps.
	res2, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:        SigmaVerification,
		Sigma:         -1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for _, v := range res2.Mapping {
		if v >= 0 {
			accepts++
		}
	}
	if accepts == 0 {
		t.Error("negative sigma rejected everything")
	}
}

func TestDistractorlessSchemeEndToEnd(t *testing.T) {
	split := world(t, 12, 10, 0.5, 22)
	p := pipelineFor(split)
	tk := p.TopK(4, DirectSelection, split.TrueMapping)

	res, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier:   func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:          DistractorlessVerification,
		CosineThreshold: 1.1, // impossible: cosine <= 1
	})
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range res.Mapping {
		if v != -1 {
			t.Errorf("user %d passed an impossible cosine threshold", u)
		}
	}
	res2, err := p.RefinedDA(tk, RefineOptions{
		NewClassifier:   func() ml.Classifier { return ml.NewKNN(3) },
		Scheme:          DistractorlessVerification,
		CosineThreshold: -1, // accept all
	})
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	for _, v := range res2.Mapping {
		if v >= 0 {
			accepts++
		}
	}
	if accepts == 0 {
		t.Error("permissive cosine threshold rejected everything")
	}
}
