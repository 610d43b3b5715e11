package core

import (
	"testing"

	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/ml"
	"dehealth/internal/similarity"
	"dehealth/internal/stylometry"
)

// TestStorePipelineParity proves NewPipelineFromStore reproduces the seed
// path bit-for-bit on a fixed-seed world: the legacy pipeline (serial
// extractor fitting, serialUDA per side, scorer over the graphs) and
// the store-backed pipeline must produce identical Top-K candidate sets,
// ranks, score extremes, filtering decisions and refined-DA mappings.
func TestStorePipelineParity(t *testing.T) {
	split := world(t, 18, 12, 0.5, 21)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	const maxBigrams = 50

	// Seed path: fit serially, extract per user via serialUDA.
	ex := stylometry.New()
	ex.FitBigrams(split.Aux.Texts(), maxBigrams)
	g1 := serialUDA(split.Anon, ex)
	g2 := serialUDA(split.Aux, ex)
	legacy := &Pipeline{
		Anon: split.Anon, Aux: split.Aux,
		Extractor: ex,
		G1:        g1, G2: g2,
		Scorer: similarity.NewScorer(g1, g2, cfg),
	}

	// Store path: parallel extraction into the shared feature store.
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, maxBigrams, features.Options{})
	stored := NewPipelineFromStore(anonS, auxS, cfg)

	for _, sel := range []SelectionMethod{DirectSelection, GraphMatchingSelection} {
		tkL := legacy.TopK(4, sel, split.TrueMapping)
		tkS := stored.TopK(4, sel, split.TrueMapping)
		assertTopKEqual(t, tkL, tkS)

		// Filtering must agree too (it reads the shared score extremes).
		legacy.Filter(tkL, FilterConfig{Epsilon: 0.01, L: 10})
		stored.Filter(tkS, FilterConfig{Epsilon: 0.01, L: 10})
		assertTopKEqual(t, tkL, tkS)

		opt := RefineOptions{
			NewClassifier: func() ml.Classifier { return ml.NewKNN(3) },
			Scheme:        MeanVerification,
			R:             0.05,
			Seed:          9,
		}
		resL, errL := legacy.RefinedDA(tkL, opt)
		resS, errS := stored.RefinedDA(tkS, opt)
		if errL != nil || errS != nil {
			t.Fatalf("refined DA errors: legacy %v, store %v", errL, errS)
		}
		for u := range resL.Mapping {
			if resL.Mapping[u] != resS.Mapping[u] {
				t.Fatalf("selection %d: mapping[%d] legacy %d != store %d",
					sel, u, resL.Mapping[u], resS.Mapping[u])
			}
		}
	}
}

// serialUDA builds d's UDA graph the seed way: every user's posts
// extracted one by one with ex, no feature store.
func serialUDA(d *corpus.Dataset, ex *stylometry.Extractor) *graph.UDA {
	vecs := make([][][]float64, len(d.Users))
	for u, ts := range d.UserTexts() {
		vecs[u] = ex.ExtractAll(ts)
	}
	return graph.BuildUDAFromVectors(d, vecs, nil)
}

func assertTopKEqual(t *testing.T, a, b *TopKResult) {
	t.Helper()
	if a.MaxScore != b.MaxScore || a.MinScore != b.MinScore {
		t.Fatalf("score extremes differ: (%v,%v) vs (%v,%v)", a.MaxScore, a.MinScore, b.MaxScore, b.MinScore)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate-set counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for u := range a.Candidates {
		if (a.Candidates[u] == nil) != (b.Candidates[u] == nil) {
			t.Fatalf("user %d: rejection disagreement", u)
		}
		if len(a.Candidates[u]) != len(b.Candidates[u]) {
			t.Fatalf("user %d: candidate counts %d vs %d", u, len(a.Candidates[u]), len(b.Candidates[u]))
		}
		for i := range a.Candidates[u] {
			if a.Candidates[u][i] != b.Candidates[u][i] {
				t.Fatalf("user %d candidate %d: %+v vs %+v", u, i, a.Candidates[u][i], b.Candidates[u][i])
			}
		}
		if a.TrueRank[u] != b.TrueRank[u] {
			t.Fatalf("user %d: true rank %d vs %d", u, a.TrueRank[u], b.TrueRank[u])
		}
		if a.MeanScore[u] != b.MeanScore[u] || a.RowMin[u] != b.RowMin[u] {
			t.Fatalf("user %d: mean/rowmin differ", u)
		}
	}
}

// TestNewPipelineFromStoreRejectsMixedExtractors ensures stores fitted
// separately cannot be combined: equal dimensionality does not imply the
// same POS-bigram feature space.
func TestNewPipelineFromStoreRejectsMixedExtractors(t *testing.T) {
	split := world(t, 10, 6, 0.5, 23)
	anonS := features.Build(split.Anon, features.NewExtractor(split.Aux.Texts(), 50), features.Options{})
	auxS := features.Build(split.Aux, features.NewExtractor(split.Aux.Texts(), 50), features.Options{})
	defer func() {
		if recover() == nil {
			t.Error("mixed-extractor stores accepted")
		}
	}()
	NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})
}

// TestWithSimilarityMatchesFreshPipeline checks the cache-sharing reweight
// path scores identically to a pipeline built from scratch with the target
// config.
func TestWithSimilarityMatchesFreshPipeline(t *testing.T) {
	split := world(t, 14, 8, 0.5, 22)
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
	base := NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5})

	target := similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 5}
	rw := base.WithSimilarity(target)
	fresh := NewPipelineFromStore(anonS, auxS, target)

	tkR := rw.TopK(3, DirectSelection, split.TrueMapping)
	tkF := fresh.TopK(3, DirectSelection, split.TrueMapping)
	assertTopKEqual(t, tkR, tkF)

	// Changing the landmark count must fall back to a full scorer rebuild.
	tkL := base.WithSimilarity(similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 3})
	tkL2 := NewPipelineFromStore(anonS, auxS, similarity.Config{C1: 0.3, C2: 0.3, C3: 0.4, Landmarks: 3})
	assertTopKEqual(t, tkL.TopK(3, DirectSelection, split.TrueMapping), tkL2.TopK(3, DirectSelection, split.TrueMapping))
}
