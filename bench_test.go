package dehealth

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark prints
// its measured rows/series once, so a bench run reproduces the full
// experimental section at the configured scale. Scale is kept laptop-sized;
// cmd/experiments exposes the same experiments with configurable sizes.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/eval"
	"dehealth/internal/features"
	"dehealth/internal/similarity"
	"dehealth/internal/stylometry"
)

// benchScale is the corpus scale used by the figure benchmarks.
var benchScale = eval.Scale{WebMDUsers: 800, HBUsers: 1600, OverlapFrac: 0.2, Seed: 1902}

var (
	corporaOnce sync.Once
	corpora     *eval.Corpora
)

func benchCorpora() *eval.Corpora {
	corporaOnce.Do(func() { corpora = eval.GenerateCorpora(benchScale) })
	return corpora
}

var printed sync.Map

// printOnce emits an experiment's output a single time across bench runs.
func printOnce(key, out string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", out)
	}
}

// BenchmarkFig1PostsCDF regenerates Fig.1: CDF of users by post count.
func BenchmarkFig1PostsCDF(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, table := eval.Fig1(c)
		if i == 0 {
			printOnce("fig1", eval.RenderSeries("Fig.1 CDF of users vs number of posts", series)+"\n"+table.String())
		}
	}
}

// BenchmarkFig2PostLength regenerates Fig.2: post length distribution.
func BenchmarkFig2PostLength(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, table := eval.Fig2(c)
		if i == 0 {
			printOnce("fig2", eval.RenderSeries("Fig.2 post length distribution", series)+"\n"+table.String())
		}
	}
}

// BenchmarkTable1Features regenerates Table I: the stylometric feature
// inventory.
func BenchmarkTable1Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.Table1()
		if i == 0 {
			printOnce("table1", t.String())
		}
	}
}

// BenchmarkFig7DegreeDist regenerates Fig.7: correlation-graph degree
// distributions.
func BenchmarkFig7DegreeDist(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, table := eval.Fig7(c)
		if i == 0 {
			printOnce("fig7", eval.RenderSeries("Fig.7 degree distribution CDF", series)+"\n"+table.String())
		}
	}
}

// BenchmarkFig8Communities regenerates Fig.8: community structure under
// degree thresholds.
func BenchmarkFig8Communities(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eval.Fig8(c)
		if i == 0 {
			printOnce("fig8", t.String())
		}
	}
}

// BenchmarkFig3ClosedTopK regenerates Fig.3: closed-world Top-K DA success
// CDFs for 50/70/90% auxiliary splits on both forums.
func BenchmarkFig3ClosedTopK(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.Fig3(c, []int{1, 5, 10, 20, 50, 100, 200, 500, 1000})
		if i == 0 {
			printOnce("fig3", eval.RenderSeries("Fig.3 closed-world Top-K DA success CDF", series))
		}
	}
}

// BenchmarkFig5OpenTopK regenerates Fig.5: open-world Top-K DA success CDFs
// for 50/70/90% overlap ratios.
func BenchmarkFig5OpenTopK(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := eval.Fig5(c, []int{1, 5, 10, 20, 50, 100, 200, 500, 1000})
		if i == 0 {
			printOnce("fig5", eval.RenderSeries("Fig.5 open-world Top-K DA success CDF", series))
		}
	}
}

// BenchmarkFig4ClosedRefined regenerates Fig.4: closed-world refined DA
// accuracy, Stylometry vs De-Health (K = 5..20) under KNN/SMO.
func BenchmarkFig4ClosedRefined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.Fig4(eval.RefinedConfig{Users: 50, Runs: 1, Seed: 1902, MaxBigrams: 100})
		if i == 0 {
			printOnce("fig4", t.String())
		}
	}
}

// BenchmarkFig6OpenRefined regenerates Fig.6: open-world refined DA accuracy
// and FP rate with mean verification (r = 0.25).
func BenchmarkFig6OpenRefined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// 60 users per side keeps the bench under a few minutes; the paper's
		// 100-user setting is cmd/experiments -run fig6.
		acc, fp := eval.Fig6(eval.RefinedConfig{Users: 60, Runs: 1, Seed: 1902, MaxBigrams: 100})
		if i == 0 {
			printOnce("fig6", acc.String()+"\n"+fp.String())
		}
	}
}

// BenchmarkLinkageAttack regenerates the §VI linkage-attack results table.
func BenchmarkLinkageAttack(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eval.LinkageExperiment(c)
		if i == 0 {
			printOnce("linkage", t.String())
		}
	}
}

// BenchmarkTheoryBounds regenerates the §IV bounds-vs-simulation table.
func BenchmarkTheoryBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.TheoryExperiment(5000)
		if i == 0 {
			printOnce("theory", t.String())
		}
	}
}

// BenchmarkAttackPipeline measures the full two-phase attack end to end on
// a small closed-world split (the operation a library user pays for).
func BenchmarkAttackPipeline(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 120, HBUsers: 120, Seed: 77})
	split := SplitClosedWorld(w.WebMD, 0.5, 78)
	opt := DefaultOptions()
	opt.K = 5
	opt.Classifier = KNN
	opt.MaxBigrams = 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Attack(split.Anon, split.Aux, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeights sweeps the similarity-weight split (c1, c2, c3),
// the design choice behind the paper's default (0.05, 0.05, 0.9).
func BenchmarkAblationWeights(b *testing.B) {
	c := benchCorpora()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := eval.AblationWeights(c, 50)
		if i == 0 {
			printOnce("ablation-weights", t.String())
		}
	}
}

// BenchmarkAblationSelection compares direct selection against graph
// matching for Top-K candidate sets.
func BenchmarkAblationSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.AblationSelection(1902)
		if i == 0 {
			printOnce("ablation-selection", t.String())
		}
	}
}

// BenchmarkAblationFilter measures the Algorithm 2 filter's effect on
// candidate sets and rejections.
func BenchmarkAblationFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.AblationFilter(1902)
		if i == 0 {
			printOnce("ablation-filter", t.String())
		}
	}
}

// BenchmarkFeatureStore measures feature-store construction — the dominant
// cost of an attack — serial versus worker-pool parallel, on one forum's
// full post set.
func BenchmarkFeatureStore(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 150, HBUsers: 150, Seed: 41})
	ex := features.NewExtractor(w.WebMD.Texts(), 100)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0}, // all CPUs
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				features.Build(w.WebMD, ex, features.Options{Workers: bench.workers})
			}
		})
	}
}

// BenchmarkExperimentGridReuse contrasts the seed architecture (rebuild the
// pipeline — and re-extract every feature — per grid point) with the shared
// feature store (extract once, derive a pipeline per grid point). The grid
// is a 4-point similarity-weight sweep with a Top-5 selection each, the
// shape of every eval experiment loop.
func BenchmarkExperimentGridReuse(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 100, HBUsers: 100, Seed: 42})
	split := SplitClosedWorld(w.WebMD, 0.5, 43)
	grid := []similarity.Config{
		{C1: 1, C2: 0, C3: 0, Landmarks: 5},
		{C1: 0, C2: 1, C3: 0, Landmarks: 5},
		{C1: 0, C2: 0, C3: 1, Landmarks: 5},
		{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5},
	}
	b.Run("rebuild-per-config", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range grid {
				anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
				p := core.NewPipelineFromStore(anonS, auxS, cfg)
				p.TopK(5, core.DirectSelection, nil)
			}
		}
	})
	b.Run("shared-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			anonS, auxS := features.BuildPair(split.Anon, split.Aux, 50, features.Options{})
			base := core.NewPipelineFromStore(anonS, auxS, grid[0])
			for _, cfg := range grid {
				p := base.WithSimilarity(cfg)
				p.TopK(5, core.DirectSelection, nil)
			}
		}
	})
}

// BenchmarkQueryUser measures the online lone-query path (a one-user
// QueryBatch) against the full-matrix Top-K phase it replaces, and asserts
// its allocation guarantee: per query, the bounded-heap path must stay far
// below one similarity-matrix row (|aux| float64s), i.e. it never
// materializes rows.
func BenchmarkQueryUser(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 400, HBUsers: 400, Seed: 91})
	split := SplitClosedWorld(w.WebMD, 0.5, 92)
	opt := DefaultOptions()
	opt.MaxBigrams = 100
	opt.Landmarks = 10
	pw := PrepareWorld(split.Anon, split.Aux, opt)
	anonN, auxN := pw.Sizes()
	if _, err := pw.QueryBatch([]int{0}, 10, opt); err != nil { // warm the pipeline cache
		b.Fatal(err)
	}

	b.Run("query-user", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pw.QueryBatch([]int{i % anonN}, 10, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-topk", func(b *testing.B) {
		p := pw.pipeline(opt.normalized().simConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.TopK(10, core.DirectSelection, nil)
		}
	})

	// Allocation assertion: mean heap bytes per query must stay below one
	// similarity-matrix row. A regression that materializes the row (or the
	// matrix) fails the benchmark rather than silently shipping.
	const rounds = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := pw.QueryBatch([]int{i % anonN}, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	if rowBytes := uint64(auxN) * 8; perOp >= rowBytes {
		b.Fatalf("a lone query allocates %d B/op, not below one similarity row (%d B): the no-matrix guarantee is broken", perOp, rowBytes)
	}
}

// BenchmarkIngest measures incremental ingestion into a live prepared world
// at two sizes of the anonymized side, with the paper's 50 landmarks. Each
// op ingests one two-post account — a reply under an existing anonymized
// thread and a new thread — and the ingest is reported per account in
// three parts: extract-us (the stylometric extraction of its posts, timed
// alone), splice-us (the store append, which extracts again and grows the
// dataset and the UDA graph, minus that extraction) and sync-us (the scorer
// cache sync). The sync is the part whose cost used to grow with the world.
func BenchmarkIngest(b *testing.B) {
	for _, accounts := range []int{2000, 8000} {
		w := GenerateWorld(WorldConfig{WebMDUsers: accounts, HBUsers: accounts / 4, Seed: 95})
		split := SplitClosedWorld(w.WebMD, 0.5, 96)
		opt := DefaultOptions()
		opt.MaxBigrams = 100
		pw := PrepareWorld(split.Anon, split.Aux, opt)
		if _, err := pw.QueryBatch([]int{0}, 10, opt); err != nil {
			b.Fatal(err)
		}
		p := pw.pipeline(opt.normalized().simConfig())
		anonN, _ := pw.Sizes()
		threads, texts := len(pw.Anon.Threads), split.Aux.Posts
		row := make([]float64, pw.anonStore.Dim())
		b.Run(fmt.Sprintf("anon=%d", anonN), func(b *testing.B) {
			var extract, appendT, syncT time.Duration
			for i := 0; i < b.N; i++ {
				posts := []IngestPost{
					{Thread: (i * 7919) % threads, Text: texts[(2*i)%len(texts)].Text},
					{Thread: NewThread, Text: texts[(2*i+1)%len(texts)].Text},
				}
				t0 := time.Now()
				for _, post := range posts {
					pw.anonStore.Extractor.ExtractInto(row, post.Text)
				}
				t1 := time.Now()
				if _, err := pw.anonStore.Append([]UserPosts{{
					User:  corpus.User{Name: fmt.Sprintf("bench-%d", i), TrueIdentity: -1},
					Posts: posts,
				}}); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				p.SyncAppended()
				extract, appendT, syncT = extract+t1.Sub(t0), appendT+t2.Sub(t1), syncT+time.Since(t2)
			}
			us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(us(extract), "extract-us/account")
			b.ReportMetric(us(appendT-extract), "splice-us/account")
			b.ReportMetric(us(syncT), "sync-us/account")
		})
	}
}

// BenchmarkStylometryExtract measures feature extraction, the pipeline's
// set-up hot path, over a WebMD-like mix of about 3,600 posts: each op
// extracts the next post of the mix, and us/post and allocs/post are
// reported beside ns/op.
func BenchmarkStylometryExtract(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 800, HBUsers: 200, Seed: 5})
	ex := stylometry.New()
	ex.FitBigrams(w.WebMD.Texts(), 0)
	posts := w.WebMD.Posts
	row := make([]float64, ex.NumFeatures())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.ExtractInto(row, posts[i%len(posts)].Text)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/post")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/post")
}

// BenchmarkDefenseScrubbing evaluates the style-scrubbing defense (the
// §VII open problem) against the attack at increasing scrub levels.
func BenchmarkDefenseScrubbing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := eval.DefenseExperiment(50, 20, 1902)
		if i == 0 {
			printOnce("defense", t.String())
		}
	}
}
