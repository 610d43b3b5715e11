package dehealth

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark prints
// its measured rows/series once, so a bench run reproduces the full
// experimental section at the configured scale. Scale is kept laptop-sized;
// cmd/experiments exposes the same experiments with configurable sizes.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dehealth/internal/core"
	"dehealth/internal/eval"
	"dehealth/internal/features"
	"dehealth/internal/index"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
	"dehealth/internal/stylometry"
	"dehealth/internal/synth"
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
				p := core.NewPipeline(split.Anon, split.Aux, cfg, 50)
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

// BenchmarkQueryUser measures the online single-user query path against
// the full-matrix Top-K phase it replaces, and asserts its allocation
// guarantee: per query, the bounded-heap path must stay far below one
// similarity-matrix row (|aux| float64s), i.e. it never materializes rows.
func BenchmarkQueryUser(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 400, HBUsers: 400, Seed: 91})
	split := SplitClosedWorld(w.WebMD, 0.5, 92)
	opt := DefaultOptions()
	opt.MaxBigrams = 100
	opt.Landmarks = 10
	pw := PrepareWorld(split.Anon, split.Aux, opt)
	anonN, auxN := pw.Sizes()
	if _, err := pw.QueryUser(0, 10, opt); err != nil { // warm the pipeline cache
		b.Fatal(err)
	}

	b.Run("query-user", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pw.QueryUser(i%anonN, 10, opt); err != nil {
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
		if _, err := pw.QueryUser(i%anonN, 10, opt); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
	if rowBytes := uint64(auxN) * 8; perOp >= rowBytes {
		b.Fatalf("QueryUser allocates %d B/op, not below one similarity row (%d B): the no-matrix guarantee is broken", perOp, rowBytes)
	}
}

// BenchmarkQueryUserApprox measures the approximate retrieval tier
// (max-score/WAND cursors + exact rescore) against the exact full scan on
// two regimes: the sparse-overlap world where exact pruning already
// wins, and the dense single-community world
// where exact pruning floors at a full rescore — the regime the tier
// exists for. Theta and the rescore budget are swept on the dense world
// and recall@10 against the exact top-10 is computed off the timer for
// every mode, so the artifact reports speedup and recall side by side;
// the degenerate configuration (Theta 1, unbounded budget) is asserted
// bit-identical to the exact scan before any timing, so BENCH_recall.json
// can never claim an exactness it does not have.
func BenchmarkQueryUserApprox(b *testing.B) {
	const (
		anonUsers = 150
		sparseAux = 4000
		community = 40
		attrDim   = 512
		denseAux  = 2000
		k         = 10
	)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}

	type world struct {
		full   *shard.World
		approx *shard.World
		stats  *index.ApproxStats
	}
	mk := func(auxN, comm int, seed int64) world {
		g1 := synth.SparseAttrUDA(anonUsers, comm, attrDim, seed)
		g2 := synth.SparseAttrUDA(auxN, comm, attrDim, seed+1)
		base := similarity.NewScorer(g1, g2, cfg)
		st := &index.ApproxStats{}
		return world{
			full:   shard.New(base, g2, nil, 1),
			approx: shard.New(base, g2, nil, 1).WithApprox(index.Config{}, st),
			stats:  st,
		}
	}
	sparse := mk(sparseAux, community, 1201)
	dense := mk(denseAux, denseAux, 1203)

	// Degenerate-knob bit-identity, off the timer, on both worlds: the
	// conservative tier must be indistinguishable from the exact engine.
	for _, w := range []struct {
		name string
		world
	}{{"sparse", sparse}, {"dense", dense}} {
		for u := 0; u < anonUsers; u += 17 {
			got := w.approx.QueryUserApprox(u, k, index.ApproxParams{})
			want := w.full.QueryUser(u, k)
			if len(got) != len(want) {
				b.Fatalf("%s user %d: approx %d candidates, full %d", w.name, u, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					b.Fatalf("%s user %d candidate %d: approx %+v, full %+v — degenerate exactness broken",
						w.name, u, i, got[i], want[i])
				}
			}
		}
	}

	// recallAt10 computes mean recall@10 against the exact top-10 over
	// every anonymized user, off the timer.
	recallAt10 := func(w world, ap index.ApproxParams) float64 {
		hits, want := 0, 0
		for u := 0; u < anonUsers; u++ {
			exact := w.full.QueryUser(u, k)
			got := w.approx.QueryUserApprox(u, k, ap)
			in := map[int]bool{}
			for _, c := range got {
				in[c.User] = true
			}
			for _, c := range exact {
				want++
				if in[c.User] {
					hits++
				}
			}
		}
		return float64(hits) / float64(want)
	}

	qps := map[string]float64{}
	recalls := map[string]float64{}
	runMode := func(name string, fn func(i int)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				fn(i)
			}
			rate := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(rate, "qps")
			if prev, ok := qps[name]; !ok || rate > prev {
				qps[name] = rate
			}
		})
	}

	recalls["sparse-approx-exact"] = recallAt10(sparse, index.ApproxParams{})
	runMode("sparse-full-scan", func(i int) { sparse.full.QueryUser(i%anonUsers, k) })
	runMode("sparse-approx-exact", func(i int) { sparse.approx.QueryUserApprox(i%anonUsers, k, index.ApproxParams{}) })

	// The dense sweep covers both knobs: theta alone (skip mass below the
	// bar) and theta x budget (bound-ordered rescore pool) — the budget
	// modes are where the block-max machinery pays, because the pool bar
	// rises with the best bounds seen instead of waiting for theta.
	type denseMode struct {
		theta  float64
		budget int
	}
	denseModes := []denseMode{
		{1.0, 0}, {1.2, 0}, {1.3, 0}, {1.4, 0}, {1.5, 0}, {2.0, 0},
		{1.0, 100}, {1.0, 200}, {1.2, 100}, {1.3, 100},
		{1.4, 100}, {1.5, 100}, {2.0, 100}, {1.5, 200}, {2.0, 200},
	}
	modeName := func(m denseMode) string {
		if m.budget > 0 {
			return fmt.Sprintf("dense-approx-theta-%.1f-budget-%d", m.theta, m.budget)
		}
		return fmt.Sprintf("dense-approx-theta-%.1f", m.theta)
	}
	runMode("dense-full-scan", func(i int) { dense.full.QueryUser(i%anonUsers, k) })
	for _, m := range denseModes {
		ap := index.ApproxParams{Theta: m.theta, Budget: m.budget}
		name := modeName(m)
		recalls[name] = recallAt10(dense, ap)
		runMode(name, func(i int) { dense.approx.QueryUserApprox(i%anonUsers, k, ap) })
	}

	speedup := func(num, den string) float64 {
		if qps[den] > 0 {
			return qps[num] / qps[den]
		}
		return 0
	}
	// The headline number: the fastest dense mode that still clears
	// recall@10 >= 0.95, against the exact dense full scan.
	bestDense := ""
	for _, m := range denseModes {
		name := modeName(m)
		if recalls[name] >= 0.95 && (bestDense == "" || qps[name] > qps[bestDense]) {
			bestDense = name
		}
	}
	denseSpeedup := 0.0
	if bestDense != "" {
		denseSpeedup = speedup(bestDense, "dense-full-scan")
	}

	thetaRows := make([]map[string]any, 0, len(denseModes))
	for _, m := range denseModes {
		name := modeName(m)
		thetaRows = append(thetaRows, map[string]any{
			"theta":     m.theta,
			"budget":    m.budget,
			"qps":       qps[name],
			"recall_10": recalls[name],
			"speedup":   speedup(name, "dense-full-scan"),
		})
	}
	summary := map[string]any{
		"benchmark":      "approx-recall",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    runtime.GOMAXPROCS(0) == 1,
		"interpretation": "the WAND walk is a work-reduction win (threshold-certified posting skipping + bounded rescore), not parallelism, so speedups hold on single-core runners; theta 1.0 is provably exact (asserted bit-identical inline), theta > 1 trades recall for skipped postings — the dense sweep shows the trade explicitly",
		"sparse": map[string]any{
			"world":     map[string]int{"anon_users": anonUsers, "aux_users": sparseAux, "attr_dim": attrDim, "community": community},
			"qps":       map[string]float64{"full-scan": qps["sparse-full-scan"], "approx-exact": qps["sparse-approx-exact"]},
			"recall_10": recalls["sparse-approx-exact"],
			"speedup":   speedup("sparse-approx-exact", "sparse-full-scan"),
		},
		"dense": map[string]any{
			"world":       map[string]int{"anon_users": anonUsers, "aux_users": denseAux, "attr_dim": attrDim, "community": denseAux},
			"full_qps":    qps["dense-full-scan"],
			"theta_sweep": thetaRows,
			"best_at_recall_0.95": map[string]any{
				"mode": bestDense, "speedup": denseSpeedup,
			},
		},
		"approx_counters": map[string]int64{
			"sparse_postings_skipped": sparse.stats.Snapshot().PostingsSkipped,
			"dense_postings_skipped":  dense.stats.Snapshot().PostingsSkipped,
			"sparse_rescored":         sparse.stats.Snapshot().Rescored,
			"dense_rescored":          dense.stats.Snapshot().Rescored,
			"sparse_blocks_checked":   sparse.stats.Snapshot().BlocksChecked,
			"sparse_blocks_skipped":   sparse.stats.Snapshot().BlocksSkipped,
			"dense_blocks_checked":    dense.stats.Snapshot().BlocksChecked,
			"dense_blocks_skipped":    dense.stats.Snapshot().BlocksSkipped,
			"sparse_cursors_demoted":  sparse.stats.Snapshot().CursorsDemoted,
			"dense_cursors_demoted":   dense.stats.Snapshot().CursorsDemoted,
		},
		"baseline": "full-scan is the per-shard bounded-heap scan over every aux user; approx generates candidates with max-score/WAND posting cursors and exact-rescores survivors — degenerate knobs asserted bit-identical inline, aggressive knobs measured against exact recall@10",
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_recall.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_recall.json: %v", err)
		}
	}
	if bestDense == "" {
		b.Log("warning: no dense theta cleared recall@10 >= 0.95")
	} else if denseSpeedup < 2 {
		b.Logf("warning: dense approx speedup %.2fx at recall >= 0.95 below the 2x target (noise or regression)", denseSpeedup)
	}
}

// BenchmarkIngest measures incremental single-user ingestion into a live
// prepared world — extraction, graph extension and similarity-cache sync.
func BenchmarkIngest(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 250, HBUsers: 250, Seed: 95})
	split := SplitClosedWorld(w.WebMD, 0.5, 96)
	opt := DefaultOptions()
	opt.MaxBigrams = 100
	opt.Landmarks = 10
	pw := PrepareWorld(split.Anon, split.Aux, opt)
	if _, err := pw.QueryUser(0, 10, opt); err != nil {
		b.Fatal(err)
	}
	text := split.Anon.Posts[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pw.IngestUser(fmt.Sprintf("bench-%d", i), []IngestPost{
			{Thread: i % 3, Text: text},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStylometryExtract measures single-post feature extraction, the
// pipeline's hot path.
func BenchmarkStylometryExtract(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 30, HBUsers: 30, Seed: 5})
	ex := stylometry.New()
	ex.FitBigrams(w.WebMD.Texts()[:20], 100)
	text := w.WebMD.Posts[0].Text
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Extract(text)
	}
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
