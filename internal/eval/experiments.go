package eval

import (
	"fmt"
	"math/rand"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/ml"
	"dehealth/internal/similarity"
	"dehealth/internal/stylometry"
)

// defaultKs is the K grid the Fig.3/Fig.5 curves are sampled on.
var defaultKs = []int{1, 5, 10, 20, 50, 100, 200, 500, 1000}

// Fig1 regenerates the Fig.1 statistics: the CDF of users by post count for
// both forums, plus the headline "<5 posts" fractions (paper: 87.3% WebMD,
// 75.4% HB) and posts-per-user means (5.66, 12.06).
func Fig1(c *Corpora) ([]Series, Table) {
	xs := []int{1, 2, 3, 4, 5, 10, 20, 50, 100, 200, 500}
	fx := make([]float64, len(xs))
	for i, x := range xs {
		fx[i] = float64(x)
	}
	series := []Series{
		{Name: "webmd", X: fx, Y: c.WebMD.PostCountCDF(xs)},
		{Name: "healthboards", X: fx, Y: c.HB.PostCountCDF(xs)},
	}
	t := Table{
		Title:  "Fig.1 headline statistics (measured vs paper)",
		Header: []string{"dataset", "frac users <5 posts", "paper", "mean posts/user", "paper"},
	}
	t.AddRow("webmd",
		fmt.Sprintf("%.3f", c.WebMD.FractionUsersWithFewerThan(5)), "0.873",
		fmt.Sprintf("%.2f", float64(c.WebMD.NumPosts())/float64(c.WebMD.NumUsers())), "5.66")
	t.AddRow("healthboards",
		fmt.Sprintf("%.3f", c.HB.FractionUsersWithFewerThan(5)), "0.754",
		fmt.Sprintf("%.2f", float64(c.HB.NumPosts())/float64(c.HB.NumUsers())), "12.06")
	return series, t
}

// Fig2 regenerates the Fig.2 statistics: the post-length distribution
// (fraction of posts per 50-word bin up to 800 words) and the mean lengths
// (paper: 127.59 WebMD, 147.24 HB).
func Fig2(c *Corpora) ([]Series, Table) {
	const binW, maxLen = 50, 800
	mk := func(d *corpus.Dataset, name string) Series {
		h := d.PostLengthHistogram(binW, maxLen)
		s := Series{Name: name}
		for i, f := range h {
			s.X = append(s.X, float64(i*binW))
			s.Y = append(s.Y, f)
		}
		return s
	}
	series := []Series{mk(c.WebMD, "webmd"), mk(c.HB, "healthboards")}
	t := Table{
		Title:  "Fig.2 headline statistics (measured vs paper)",
		Header: []string{"dataset", "mean post length (words)", "paper"},
	}
	t.AddRow("webmd", fmt.Sprintf("%.2f", c.WebMD.MeanPostLengthWords()), "127.59")
	t.AddRow("healthboards", fmt.Sprintf("%.2f", c.HB.MeanPostLengthWords()), "147.24")
	return series, t
}

// Table1 reports the stylometric feature inventory per category against the
// Table I counts. The POS-bigram block is data-driven (as in the paper), so
// it is fitted on a small sample corpus before counting.
func Table1() Table {
	ex := stylometry.New()
	sample, _ := RefinedCorpus(20, 10, 7)
	ex.FitBigrams(sample.Texts(), stylometry.DefaultMaxBigrams)
	counts := ex.CategoryCounts()
	t := Table{
		Title:  "Table I feature inventory (measured vs paper)",
		Header: []string{"category", "features", "paper"},
	}
	paper := []struct {
		cat   stylometry.Category
		count string
	}{
		{stylometry.CatLength, "3"},
		{stylometry.CatWordLength, "20"},
		{stylometry.CatVocabRichness, "5"},
		{stylometry.CatLetterFreq, "26"},
		{stylometry.CatDigitFreq, "10"},
		{stylometry.CatUppercase, "1"},
		{stylometry.CatSpecialChars, "21"},
		{stylometry.CatWordShape, "21 (ours: 5 shape classes)"},
		{stylometry.CatPunctuation, "10"},
		{stylometry.CatFunctionWords, "337"},
		{stylometry.CatPOSTags, "<2300 (ours: Penn tagset)"},
		{stylometry.CatPOSBigrams, "<2300^2 (data-driven cap)"},
		{stylometry.CatMisspellings, "248"},
	}
	for _, p := range paper {
		t.AddRow(string(p.cat), fmt.Sprintf("%d", counts[p.cat]), p.count)
	}
	return t
}

// Fig7 regenerates the degree-distribution CDFs of the correlation graphs.
func Fig7(c *Corpora) ([]Series, Table) {
	xs := []int{0, 1, 2, 5, 10, 20, 50, 100, 200, 500}
	fx := make([]float64, len(xs))
	for i, x := range xs {
		fx[i] = float64(x)
	}
	gw := graph.BuildCorrelation(c.WebMD)
	gh := graph.BuildCorrelation(c.HB)
	series := []Series{
		{Name: "webmd", X: fx, Y: gw.DegreeCDF(xs)},
		{Name: "healthboards", X: fx, Y: gh.DegreeCDF(xs)},
	}
	t := Table{
		Title:  "Fig.7 degree statistics",
		Header: []string{"dataset", "avg degree", "edges", "paper shape"},
	}
	t.AddRow("webmd", fmt.Sprintf("%.2f", gw.AverageDegree()), fmt.Sprintf("%d", gw.NumEdges()), "low degree, sparse")
	t.AddRow("healthboards", fmt.Sprintf("%.2f", gh.AverageDegree()), fmt.Sprintf("%d", gh.NumEdges()), "low degree, sparse")
	return series, t
}

// Fig8 regenerates the community-structure views of the WebMD correlation
// graph at the Appendix B degree thresholds (0, 11, 21, 31): node counts,
// connected components and label-propagation communities. The paper reports
// a disconnected graph with roughly 10–100 communities at every threshold.
func Fig8(c *Corpora) Table {
	g := graph.BuildCorrelation(c.WebMD)
	t := Table{
		Title:  "Fig.8 WebMD community structure",
		Header: []string{"min degree", "nodes", "edges", "components", "communities"},
	}
	for _, minDeg := range []int{0, 11, 21, 31} {
		sub, kept := g.DegreeFilter(minDeg)
		_, comps := sub.Components()
		rng := rand.New(rand.NewSource(8))
		_, comms := sub.LabelPropagation(rng, 50)
		t.AddRow(
			fmt.Sprintf("%d", minDeg),
			fmt.Sprintf("%d", len(kept)),
			fmt.Sprintf("%d", sub.NumEdges()),
			fmt.Sprintf("%d", comps),
			fmt.Sprintf("%d", comms),
		)
	}
	return t
}

// Fig3 regenerates the closed-world Top-K DA success CDFs: for each forum
// and each auxiliary fraction (50%, 70%, 90%), the fraction of anonymized
// users whose true mapping falls in their Top-K candidate set.
func Fig3(c *Corpora, ks []int) []Series {
	if ks == nil {
		ks = defaultKs
	}
	fx := make([]float64, len(ks))
	for i, k := range ks {
		fx[i] = float64(k)
	}
	var out []Series
	for _, ds := range []struct {
		name string
		d    *corpus.Dataset
	}{{"webmd", c.WebMD}, {"healthboards", c.HB}} {
		for _, frac := range []float64{0.5, 0.7, 0.9} {
			rng := rand.New(rand.NewSource(c.Scale.Seed + int64(frac*100)))
			split := corpus.SplitClosedWorld(ds.d, frac, rng)
			anonS, auxS := features.BuildPair(split.Anon, split.Aux, 200, features.Options{})
			p := core.NewPipelineFromStore(anonS, auxS, similarity.DefaultConfig())
			maxK := ks[len(ks)-1]
			tk := p.TopK(maxK, core.DirectSelection, split.TrueMapping)
			out = append(out, Series{
				Name: fmt.Sprintf("%s-%d%%", ds.name, int(frac*100)),
				X:    fx,
				Y:    TopKSuccessCDF(tk, split.TrueMapping, ks),
			})
		}
	}
	return out
}

// Fig5 regenerates the open-world Top-K DA success CDFs for overlapping
// user ratios 50%, 70% and 90% on both forums.
func Fig5(c *Corpora, ks []int) []Series {
	if ks == nil {
		ks = defaultKs
	}
	fx := make([]float64, len(ks))
	for i, k := range ks {
		fx[i] = float64(k)
	}
	var out []Series
	for _, ds := range []struct {
		name string
		d    *corpus.Dataset
	}{{"webmd", c.WebMD}, {"healthboards", c.HB}} {
		for _, ratio := range []float64{0.5, 0.7, 0.9} {
			rng := rand.New(rand.NewSource(c.Scale.Seed + int64(ratio*1000)))
			split := corpus.OpenWorldOverlap(ds.d, ratio, rng)
			anonS, auxS := features.BuildPair(split.Anon, split.Aux, 200, features.Options{})
			p := core.NewPipelineFromStore(anonS, auxS, similarity.DefaultConfig())
			maxK := ks[len(ks)-1]
			tk := p.TopK(maxK, core.DirectSelection, split.TrueMapping)
			out = append(out, Series{
				Name: fmt.Sprintf("%s-%d%%", ds.name, int(ratio*100)),
				X:    fx,
				Y:    TopKSuccessCDF(tk, split.TrueMapping, ks),
			})
		}
	}
	return out
}

// RefinedConfig parametrizes the Fig.4/Fig.6 refined-DA experiments.
type RefinedConfig struct {
	// Users is the population size (paper: 50 closed-world, 100 open-world
	// per side).
	Users int
	// PostsPerUser is the per-user post count (20 or 40).
	PostsPerUser int
	// Ks are the De-Health candidate-set sizes to evaluate.
	Ks []int
	// Runs averages over this many independent populations (paper: 10).
	Runs int
	// Seed drives everything.
	Seed int64
	// MaxBigrams caps the POS-bigram block (smaller = faster).
	MaxBigrams int
	// R is the mean-verification margin for Fig.6. The paper uses r = 0.25
	// on the WebMD similarity scale; on the synthetic corpora's compressed
	// score scale the equivalent operating point is r ≈ 0.06, which is the
	// default here.
	R float64
}

// classifierSpec names a classifier factory.
type classifierSpec struct {
	name string
	mk   func() ml.Classifier
}

func refinedClassifiers() []classifierSpec {
	return []classifierSpec{
		{"KNN", func() ml.Classifier { return ml.NewKNN(3) }},
		{"SMO", func() ml.Classifier { return ml.NewSMO(ml.SMOConfig{C: 1, Seed: 11}) }},
	}
}

// Fig4 regenerates the closed-world refined-DA accuracy comparison: the
// Stylometry baseline versus De-Health with K in cfg.Ks, for KNN and SMO,
// at 10 and 20 training posts per user. Rows are labelled like the paper's
// x-axis ("KNN-10", "SMO-20", ...).
func Fig4(cfg RefinedConfig) Table {
	if cfg.Users == 0 {
		cfg.Users = 50
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{5, 10, 15, 20}
	}
	if cfg.Runs == 0 {
		cfg.Runs = 3
	}
	if cfg.MaxBigrams == 0 {
		cfg.MaxBigrams = 100
	}
	t := Table{
		Title:  "Fig.4 closed-world refined DA accuracy",
		Header: []string{"setting", "Stylometry"},
	}
	for _, k := range cfg.Ks {
		t.Header = append(t.Header, fmt.Sprintf("De-Health(K=%d)", k))
	}

	// One split — and therefore one feature store and one Top-K result per
	// K — is shared by every classifier of a (posts, run) cell; only the
	// refined-DA phase differs per classifier.
	specs := refinedClassifiers()
	for _, posts := range []int{20, 40} {
		train := posts / 2
		accSty := make([]float64, len(specs))
		accDH := make([][]float64, len(specs))
		for si := range specs {
			accDH[si] = make([]float64, len(cfg.Ks))
		}
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run*1000+posts)
			d, _ := RefinedCorpus(cfg.Users, posts, seed)
			rng := rand.New(rand.NewSource(seed + 5))
			split := corpus.SplitClosedWorld(d, 0.5, rng)
			simCfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
			anonS, auxS := features.BuildPair(split.Anon, split.Aux, cfg.MaxBigrams, features.Options{})
			p := core.NewPipelineFromStore(anonS, auxS, simCfg)
			tks := make([]*core.TopKResult, len(cfg.Ks))
			for ki, k := range cfg.Ks {
				tks[ki] = p.TopK(k, core.DirectSelection, split.TrueMapping)
			}

			for si, spec := range specs {
				opt := core.RefineOptions{NewClassifier: spec.mk, Scheme: core.ClosedWorld, Seed: seed}
				if sty, err := p.StylometryBaseline(opt); err == nil {
					a, _ := AccuracyFP(sty, split.TrueMapping)
					accSty[si] += a
				}
				for ki := range cfg.Ks {
					if res, err := p.RefinedDA(tks[ki], opt); err == nil {
						a, _ := AccuracyFP(res, split.TrueMapping)
						accDH[si][ki] += a
					}
				}
			}
		}
		for si, spec := range specs {
			row := []string{
				fmt.Sprintf("%s-%d", spec.name, train),
				fmt.Sprintf("%.3f", accSty[si]/float64(cfg.Runs)),
			}
			for ki := range cfg.Ks {
				row = append(row, fmt.Sprintf("%.3f", accDH[si][ki]/float64(cfg.Runs)))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Fig6 regenerates the open-world refined-DA comparison: accuracy and
// false-positive rate for overlap ratios 50%, 70% and 90%, using the
// mean-verification scheme with r = 0.25 (the paper's setting). It returns
// the accuracy table and the FP-rate table.
func Fig6(cfg RefinedConfig) (Table, Table) {
	if cfg.Users == 0 {
		cfg.Users = 100
	}
	if cfg.PostsPerUser == 0 {
		cfg.PostsPerUser = 40
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{5, 10, 15, 20}
	}
	if cfg.Runs == 0 {
		cfg.Runs = 3
	}
	if cfg.MaxBigrams == 0 {
		cfg.MaxBigrams = 100
	}
	if cfg.R == 0 {
		cfg.R = 0.06
	}
	acc := Table{Title: "Fig.6a open-world DA accuracy", Header: []string{"setting", "Stylometry"}}
	fpt := Table{Title: "Fig.6b open-world DA FP rate", Header: []string{"setting", "Stylometry"}}
	for _, k := range cfg.Ks {
		h := fmt.Sprintf("De-Health(K=%d)", k)
		acc.Header = append(acc.Header, h)
		fpt.Header = append(fpt.Header, h)
	}

	// As in Fig4, the split, its feature store and the filtered Top-K
	// results are built once per (ratio, run) and shared by every
	// classifier; the filter is deterministic, so filtering each Top-K
	// result once up front matches the per-classifier filtering it replaces.
	specs := refinedClassifiers()
	for _, ratio := range []float64{0.5, 0.7, 0.9} {
		// Pool size n such that each side gets cfg.Users users:
		// x = ratio*U, y = (1-ratio)*U, n = x + 2y = U(2-ratio).
		pool := int(float64(cfg.Users) * (2 - ratio))
		accSty := make([]float64, len(specs))
		fpSty := make([]float64, len(specs))
		accDH := make([][]float64, len(specs))
		fpDH := make([][]float64, len(specs))
		for si := range specs {
			accDH[si] = make([]float64, len(cfg.Ks))
			fpDH[si] = make([]float64, len(cfg.Ks))
		}
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run*977+int(ratio*100))
			d, _ := RefinedCorpus(pool, cfg.PostsPerUser, seed)
			rng := rand.New(rand.NewSource(seed + 5))
			split := corpus.OpenWorldOverlap(d, ratio, rng)
			simCfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
			anonS, auxS := features.BuildPair(split.Anon, split.Aux, cfg.MaxBigrams, features.Options{})
			p := core.NewPipelineFromStore(anonS, auxS, simCfg)
			tks := make([]*core.TopKResult, len(cfg.Ks))
			for ki, k := range cfg.Ks {
				tks[ki] = p.TopK(k, core.DirectSelection, split.TrueMapping)
				p.Filter(tks[ki], core.FilterConfig{Epsilon: 0.01, L: 10})
			}

			for si, spec := range specs {
				opt := core.RefineOptions{
					NewClassifier: spec.mk,
					Scheme:        core.MeanVerification,
					R:             cfg.R,
					Seed:          seed,
				}
				// The paper's Stylometry baseline maps every anonymized user
				// unconditionally; its high FP rate in Fig.6b is precisely the
				// absence of a verification scheme.
				styOpt := opt
				styOpt.Scheme = core.ClosedWorld
				if sty, err := p.StylometryBaseline(styOpt); err == nil {
					a, f := AccuracyFP(sty, split.TrueMapping)
					accSty[si] += a
					fpSty[si] += f
				}
				for ki := range cfg.Ks {
					if res, err := p.RefinedDA(tks[ki], opt); err == nil {
						a, f := AccuracyFP(res, split.TrueMapping)
						accDH[si][ki] += a
						fpDH[si][ki] += f
					}
				}
			}
		}
		n := float64(cfg.Runs)
		for si, spec := range specs {
			rowA := []string{fmt.Sprintf("%d%%-%s", int(ratio*100), spec.name), fmt.Sprintf("%.3f", accSty[si]/n)}
			rowF := []string{fmt.Sprintf("%d%%-%s", int(ratio*100), spec.name), fmt.Sprintf("%.3f", fpSty[si]/n)}
			for ki := range cfg.Ks {
				rowA = append(rowA, fmt.Sprintf("%.3f", accDH[si][ki]/n))
				rowF = append(rowF, fmt.Sprintf("%.3f", fpDH[si][ki]/n))
			}
			acc.AddRow(rowA...)
			fpt.AddRow(rowF...)
		}
	}
	return acc, fpt
}
