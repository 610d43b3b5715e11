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
	"path/filepath"
	"runtime"
	"sort"
	"strings"
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

// BenchmarkQueryUserSharded measures the partition-parallel single-row
// query path against the single-shard engine it generalizes (the PR 2
// serving baseline): the same prepared stores drive a pipeline with one
// shard and one with a shard per CPU, and the per-mode throughput plus the
// sharded/unsharded speedup land in BENCH_sharding.json. On a multi-core
// runner the fan-out/merge path should clear 1.5x over shards-1; on a
// single-core machine the two modes are equivalent work (gomaxprocs is
// recorded so the artifact is interpretable either way).
func BenchmarkQueryUserSharded(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 600, HBUsers: 600, Seed: 97})
	split := SplitClosedWorld(w.WebMD, 0.5, 98)
	opt := DefaultOptions()
	opt.MaxBigrams = 100
	opt.Landmarks = 10
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, opt.MaxBigrams, features.Options{})
	cfg := opt.normalized().simConfig()

	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	} else {
		counts = append(counts, 2) // keep the fan-out/merge path exercised
	}
	qps := map[string]float64{}
	for _, n := range counts {
		p := core.NewShardedPipelineFromStore(anonS, auxS, cfg, n)
		anonN := p.G1.NumNodes()
		name := fmt.Sprintf("shards-%d", n)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p.QueryUser(i%anonN, 10)
			}
			elapsed := time.Since(start)
			rate := float64(b.N) / elapsed.Seconds()
			b.ReportMetric(rate, "qps")
			if prev, ok := qps[name]; !ok || rate > prev {
				qps[name] = rate
			}
		})
	}

	speedup := 0.0
	if base := qps["shards-1"]; base > 0 {
		speedup = qps[fmt.Sprintf("shards-%d", counts[len(counts)-1])] / base
	}
	// On a single-core environment the fan-out/merge path cannot win —
	// both modes do the same scoring work and the sharded one adds merge
	// overhead, so ~0.95x is the expected reading, not a regression. Label
	// the artifact so the number is interpretable without the runner's
	// specs at hand (see README "Scaling out").
	singleCore := runtime.GOMAXPROCS(0) == 1
	interpretation := "multi-core: speedup is the parallel fan-out/merge win over the single-shard scan"
	if singleCore {
		interpretation = "single-core environment: no parallelism is available, so speedup ~<=1.0x measures fan-out/merge overhead only; run on a multi-core machine to measure the sharding win"
	}
	summary := map[string]any{
		"benchmark":      "sharding",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    singleCore,
		"interpretation": interpretation,
		"world":          map[string]int{"anon_users": split.Anon.NumUsers(), "aux_users": split.Aux.NumUsers()},
		"qps":            qps,
		"speedup":        speedup,
		"baseline":       "shards-1 is the PR 2 single-shard bounded-heap query engine",
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_sharding.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_sharding.json: %v", err)
		}
	}
}

// BenchmarkQueryUserPruned measures the candidate-pruned single-row query
// path against the full per-shard scan it avoids, on a synthetic aux
// world with sparse attribute overlap, and writes a BENCH_prune.json
// summary: per-mode qps, the speedup, the candidate-set size distribution
// and the pruning counters. Parity is asserted inline — the pruned
// candidates must be bit-identical to the full scan — so the artifact can
// never report a speedup obtained by changing results.
func BenchmarkQueryUserPruned(b *testing.B) {
	const (
		auxUsers  = 4000
		anonUsers = 150
		community = 40
		attrDim   = 512
	)
	g1 := synth.SparseAttrUDA(anonUsers, community, attrDim, 1201)
	g2 := synth.SparseAttrUDA(auxUsers, community, attrDim, 1202)
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 5}
	base := similarity.NewScorer(g1, g2, cfg)
	full := shard.New(base, g2, nil, 1)
	st := &index.Stats{}
	pruned := shard.New(base, g2, nil, 1).WithPruning(index.Config{}, st)

	// Candidate-set size distribution over every anonymized user.
	x := pruned.Shards()[0].Index
	sizes := make([]int, anonUsers)
	for u := 0; u < anonUsers; u++ {
		sizes[u] = x.CandidateCount(base.AnonAttrs(u))
	}
	sort.Ints(sizes)
	pct := func(p float64) int { return sizes[int(p*float64(len(sizes)-1))] }

	for u := 0; u < anonUsers; u += 17 { // parity spot-check, off the timer
		got, want := pruned.QueryUser(u, 10), full.QueryUser(u, 10)
		if len(got) != len(want) {
			b.Fatalf("user %d: pruned %d candidates, full %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				b.Fatalf("user %d candidate %d: pruned %+v, full %+v", u, i, got[i], want[i])
			}
		}
	}

	qps := map[string]float64{}
	for _, mode := range []struct {
		name  string
		world *shard.World
	}{
		{"full-scan", full},
		{"pruned", pruned},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				mode.world.QueryUser(i%anonUsers, 10)
			}
			rate := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(rate, "qps")
			if prev, ok := qps[mode.name]; !ok || rate > prev {
				qps[mode.name] = rate
			}
		})
	}

	// Dense regime: one community spanning the whole population, so every
	// query's candidate set is essentially the window and no band skip can
	// certify — the adversarial case for the banded engine, measured so
	// its bookkeeping overhead (postings gather, marking, scattered
	// rescore, fruitless bound checks) against the plain blocked scan is
	// tracked per commit rather than assumed.
	const denseUsers = 2000
	dg1 := synth.SparseAttrUDA(anonUsers, denseUsers, attrDim, 1203)
	dg2 := synth.SparseAttrUDA(denseUsers, denseUsers, attrDim, 1204)
	dbase := similarity.NewScorer(dg1, dg2, cfg)
	dfull := shard.New(dbase, dg2, nil, 1)
	dst := &index.Stats{}
	dpruned := shard.New(dbase, dg2, nil, 1).WithPruning(index.Config{}, dst)
	for u := 0; u < anonUsers; u += 29 { // parity spot-check, off the timer
		got, want := dpruned.QueryUser(u, 10), dfull.QueryUser(u, 10)
		for i := range want {
			if got[i] != want[i] {
				b.Fatalf("dense user %d candidate %d: pruned %+v, full %+v", u, i, got[i], want[i])
			}
		}
	}
	for _, mode := range []struct {
		name  string
		world *shard.World
	}{
		{"dense-full-scan", dfull},
		{"dense-pruned", dpruned},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				mode.world.QueryUser(i%anonUsers, 10)
			}
			rate := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(rate, "qps")
			if prev, ok := qps[mode.name]; !ok || rate > prev {
				qps[mode.name] = rate
			}
		})
	}

	speedup := 0.0
	if qps["full-scan"] > 0 {
		speedup = qps["pruned"] / qps["full-scan"]
	}
	denseSpeedup := 0.0
	if qps["dense-full-scan"] > 0 {
		denseSpeedup = qps["dense-pruned"] / qps["dense-full-scan"]
	}
	stats := st.Snapshot()
	dstats := dst.Snapshot()
	summary := map[string]any{
		"benchmark":      "prune",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    runtime.GOMAXPROCS(0) == 1,
		"interpretation": "pruning is a work-reduction win (index-certified candidate skipping), not parallelism, so the sparse-world speedup holds on single-core runners; the dense block reports the bookkeeping-overhead floor in the regime with nothing to skip",
		"world": map[string]int{
			"anon_users": anonUsers, "aux_users": auxUsers,
			"attr_dim": attrDim, "community": community,
		},
		"qps":     qps,
		"speedup": speedup,
		"candidate_set_size": map[string]any{
			"min": sizes[0], "p50": pct(0.5), "p90": pct(0.9), "max": sizes[len(sizes)-1],
			"aux_users": auxUsers,
		},
		"prune_counters": map[string]int64{
			"queries": stats.Queries, "fallbacks": stats.Fallbacks,
			"dense_queries": stats.DenseQueries,
			"candidates":    stats.Candidates, "scanned": stats.Scanned, "skipped": stats.Skipped,
			"bands_checked": stats.BandsChecked, "bands_skipped": stats.BandsSkipped,
		},
		"dense": map[string]any{
			"world":   map[string]int{"anon_users": anonUsers, "aux_users": denseUsers, "community": denseUsers},
			"speedup": denseSpeedup,
			"prune_counters": map[string]int64{
				"queries": dstats.Queries, "dense_queries": dstats.DenseQueries,
				"candidates": dstats.Candidates, "scanned": dstats.Scanned, "skipped": dstats.Skipped,
				"bands_checked": dstats.BandsChecked, "bands_skipped": dstats.BandsSkipped,
			},
			"interpretation": "single-community world: candidate set ~= window and no band skip certifies, so speedup ~<=1.0x measures the banded engine's bookkeeping overhead in the regime that used to fall back — the floor of the pruning trade, not its win",
		},
		"baseline": "full-scan is the per-shard bounded-heap scan over every aux user; pruned rescoring is guaranteed bit-identical (fallback on uncertifiable top-K)",
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_prune.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_prune.json: %v", err)
		}
	}
}

// BenchmarkQueryUserApprox measures the approximate retrieval tier
// (max-score/WAND cursors + exact rescore) against the exact full scan on
// the two regimes of BenchmarkQueryUserPruned: the sparse-overlap world
// where exact pruning already wins, and the dense single-community world
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

// benchSink keeps benchmark loops from being dead-code eliminated.
var benchSink float64

// BenchmarkScoreKernel measures the flat scoring kernel against the
// retained naive reference (similarity.ScoreSlow — the pre-flat-layout
// per-pair implementation) on a dense-attribute real-text world, at two
// granularities: raw ns/pair over full row sweeps, and the end-to-end
// single-thread full-scan QueryUser path (bounded top-K selection over
// every auxiliary user). Parity is asserted inline before any timing —
// the flat kernel must be bit-identical to the naive reference pair by
// pair and query by query — so BENCH_score.json can never report a
// speedup obtained by changing results.
func BenchmarkScoreKernel(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 500, HBUsers: 500, Seed: 101})
	split := SplitClosedWorld(w.WebMD, 0.5, 102)
	// MaxBigrams 300 keeps the stylometric attribute sets dense — the
	// regime where the fused attribute merge carries the kernel win.
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 300, features.Options{})
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 10}
	p := core.NewPipelineFromStore(anonS, auxS, cfg)
	sc := p.Scorer
	anonN, auxN := p.G1.NumNodes(), p.G2.NumNodes()
	const k = 10

	// naiveTopK is the pre-PR full-scan QueryUser: a bounded selection
	// over ScoreSlow, under the same (score desc, id asc) order.
	naiveTopK := func(u int) []core.Candidate {
		best := make([]core.Candidate, 0, k)
		for v := 0; v < auxN; v++ {
			c := core.Candidate{User: v, Score: sc.ScoreSlow(u, v)}
			if len(best) == k {
				worst := best[len(best)-1]
				if c.Score < worst.Score || (c.Score == worst.Score && c.User > worst.User) {
					continue
				}
				best = best[:len(best)-1]
			}
			i := len(best)
			for i > 0 && (best[i-1].Score < c.Score || (best[i-1].Score == c.Score && best[i-1].User > c.User)) {
				i--
			}
			best = append(best, core.Candidate{})
			copy(best[i+1:], best[i:])
			best[i] = c
		}
		return best
	}

	// Inline parity assertion: flat ≡ naive, bit for bit, off the timer.
	for u := 0; u < anonN; u += 13 {
		got, want := p.QueryUser(u, k), naiveTopK(u)
		if len(got) != len(want) {
			b.Fatalf("user %d: flat returned %d candidates, naive %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				b.Fatalf("user %d candidate %d: flat %+v, naive %+v — kernel parity broken", u, i, got[i], want[i])
			}
		}
		for v := 0; v < auxN; v += 7 {
			if sc.Score(u, v) != sc.ScoreSlow(u, v) {
				b.Fatalf("Score(%d,%d) = %v, ScoreSlow = %v — kernel parity broken", u, v, sc.Score(u, v), sc.ScoreSlow(u, v))
			}
		}
	}

	nsPerPair := map[string]float64{}
	qps := map[string]float64{}
	b.Run("naive-pair", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			u := i % anonN
			for v := 0; v < auxN; v++ {
				benchSink += sc.ScoreSlow(u, v)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(b.N*auxN)
		b.ReportMetric(ns, "ns/pair")
		if prev, ok := nsPerPair["naive"]; !ok || ns < prev {
			nsPerPair["naive"] = ns
		}
	})
	b.Run("flat-pair", func(b *testing.B) {
		row := make([]float64, auxN)
		var prof similarity.QueryProfile
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sc.PrepareQuery(i%anonN, &prof)
			sc.ScoreRange(&prof, 0, auxN, row)
			benchSink += row[0]
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(b.N*auxN)
		b.ReportMetric(ns, "ns/pair")
		if prev, ok := nsPerPair["flat"]; !ok || ns < prev {
			nsPerPair["flat"] = ns
		}
	})
	b.Run("queryuser-naive", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			naiveTopK(i % anonN)
		}
		rate := float64(b.N) / time.Since(start).Seconds()
		b.ReportMetric(rate, "qps")
		if prev, ok := qps["naive-full-scan"]; !ok || rate > prev {
			qps["naive-full-scan"] = rate
		}
	})
	b.Run("queryuser-flat", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			p.QueryUser(i%anonN, k)
		}
		rate := float64(b.N) / time.Since(start).Seconds()
		b.ReportMetric(rate, "qps")
		if prev, ok := qps["flat-full-scan"]; !ok || rate > prev {
			qps["flat-full-scan"] = rate
		}
	})

	kernelSpeedup := 0.0
	if nsPerPair["flat"] > 0 {
		kernelSpeedup = nsPerPair["naive"] / nsPerPair["flat"]
	}
	querySpeedup := 0.0
	if qps["naive-full-scan"] > 0 {
		querySpeedup = qps["flat-full-scan"] / qps["naive-full-scan"]
	}
	summary := map[string]any{
		"benchmark":      "score-kernel",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    runtime.GOMAXPROCS(0) == 1,
		"interpretation": "both contrasts are single-threaded: the kernel speedup is SoA layout + precomputed norms over the naive per-pair reference, and the queryuser speedup is the same kernel under the bounded top-K scan — memory-layout wins, not parallelism, so they hold on single-core runners",
		"world": map[string]int{
			"anon_users": anonN, "aux_users": auxN,
			"landmarks": cfg.Landmarks, "max_bigrams": 300,
		},
		"ns_per_pair":       nsPerPair,
		"kernel_speedup":    kernelSpeedup,
		"qps":               qps,
		"queryuser_speedup": querySpeedup,
		"baseline":          "naive is the retained pre-flat-kernel ScoreSlow (per-pair norm re-summation, live degree walks, two-pass attribute merge); flat is PrepareQuery+ScoreRange over SoA caches with precomputed norms — parity asserted inline, bit-identical",
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_score.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_score.json: %v", err)
		}
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

// BenchmarkScoreKernelBatch measures the multi-query blocked kernel
// against the Q=1 flat kernel it batches, on the same dense-attribute
// world as BenchmarkScoreKernel: ns/pair at batch widths Q ∈ {1, 4, 8,
// 16} (PrepareBatch + one ScoreRangeBatch sweep over the full auxiliary
// range) versus the per-query PrepareQuery + ScoreRange baseline, plus
// the end-to-end single-worker query path — one TopKBatch blocked scan
// answering eight queries versus eight independent QueryUser scans.
// Parity is asserted inline before any timing — every batched score must
// be bit-identical to the naive reference ScoreSlow — so
// BENCH_batch.json can never report a speedup obtained by changing
// results.
func BenchmarkScoreKernelBatch(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 500, HBUsers: 500, Seed: 101})
	split := SplitClosedWorld(w.WebMD, 0.5, 102)
	// MaxBigrams 300 keeps the stylometric attribute sets dense — the
	// regime where the per-query weight tables carry the batched win.
	anonS, auxS := features.BuildPair(split.Anon, split.Aux, 300, features.Options{})
	cfg := similarity.Config{C1: 0.05, C2: 0.05, C3: 0.9, Landmarks: 10}
	p := core.NewPipelineFromStore(anonS, auxS, cfg)
	sc := p.Scorer
	anonN, auxN := p.G1.NumNodes(), p.G2.NumNodes()
	const k = 10

	// Inline parity assertion: batched ≡ ScoreSlow, bit for bit, off the
	// timer, on a batch mixing spread-out query users.
	{
		const q = 8
		users := make([]int, q)
		out := make([][]float64, q)
		for i := range users {
			users[i] = (i * 31) % anonN
			out[i] = make([]float64, auxN)
		}
		var bp similarity.BatchProfile
		sc.PrepareBatch(users, &bp)
		sc.ScoreRangeBatch(&bp, 0, auxN, out)
		for i, u := range users {
			for v := 0; v < auxN; v++ {
				if want := sc.ScoreSlow(u, v); out[i][v] != want {
					b.Fatalf("batch[%d][%d] = %v, ScoreSlow(%d,%d) = %v — batched kernel parity broken",
						i, v, out[i][v], u, v, want)
				}
			}
		}
	}

	nsPerPair := map[string]float64{}
	b.Run("flat-q1", func(b *testing.B) {
		row := make([]float64, auxN)
		var prof similarity.QueryProfile
		start := time.Now()
		for i := 0; i < b.N; i++ {
			sc.PrepareQuery(i%anonN, &prof)
			sc.ScoreRange(&prof, 0, auxN, row)
			benchSink += row[0]
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(b.N*auxN)
		b.ReportMetric(ns, "ns/pair")
		if prev, ok := nsPerPair["flat-q1"]; !ok || ns < prev {
			nsPerPair["flat-q1"] = ns
		}
	})
	for _, q := range []int{1, 4, 8, 16} {
		name := fmt.Sprintf("batch-q%d", q)
		b.Run(name, func(b *testing.B) {
			users := make([]int, q)
			out := make([][]float64, q)
			for i := range out {
				out[i] = make([]float64, auxN)
			}
			var bp similarity.BatchProfile
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for j := range users {
					users[j] = (i*q + j) % anonN
				}
				sc.PrepareBatch(users, &bp)
				sc.ScoreRangeBatch(&bp, 0, auxN, out)
				benchSink += out[0][0]
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(b.N*q*auxN)
			b.ReportMetric(ns, "ns/pair")
			if prev, ok := nsPerPair[name]; !ok || ns < prev {
				nsPerPair[name] = ns
			}
		})
	}

	// End-to-end query path, one worker on purpose: the contrast is one
	// blocked TopKBatch scan answering 8 queries versus 8 independent
	// bounded-heap scans — same thread, same world, so the difference is
	// purely the kernel's cache and table-amortization win.
	qps := map[string]float64{}
	const batchQ = 8
	busers := make([]int, batchQ)
	b.Run("queryuser-seq", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j := range busers {
				p.QueryUser((i*batchQ+j)%anonN, k)
			}
		}
		rate := float64(b.N*batchQ) / time.Since(start).Seconds()
		b.ReportMetric(rate, "qps")
		if prev, ok := qps["queryuser-sequential"]; !ok || rate > prev {
			qps["queryuser-sequential"] = rate
		}
	})
	b.Run("querybatch-q8", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for j := range busers {
				busers[j] = (i*batchQ + j) % anonN
			}
			p.QueryBatch(busers, k, 1)
		}
		rate := float64(b.N*batchQ) / time.Since(start).Seconds()
		b.ReportMetric(rate, "qps")
		if prev, ok := qps["querybatch-q8"]; !ok || rate > prev {
			qps["querybatch-q8"] = rate
		}
	})

	speedup := func(name string) float64 {
		if nsPerPair[name] > 0 {
			return nsPerPair["flat-q1"] / nsPerPair[name]
		}
		return 0
	}
	querySpeedup := 0.0
	if qps["queryuser-sequential"] > 0 {
		querySpeedup = qps["querybatch-q8"] / qps["queryuser-sequential"]
	}
	// The batched win is arithmetic-intensity and cache reuse — the dense
	// weight tables amortize over every auxiliary row and each hot block
	// feeds Q queries — not parallelism: everything here runs one worker
	// on one goroutine, so the artifact reads the same on any core count.
	summary := map[string]any{
		"benchmark":      "score-kernel-batch",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    runtime.GOMAXPROCS(0) == 1,
		"interpretation": "batched vs flat-q1 ns/pair is a single-threaded contrast: the win is per-query weight-table amortization and per-block cache reuse in the multi-query kernel, not parallelism, so it holds on single-core runners; querybatch-q8 vs queryuser-sequential shows the same win through the end-to-end blocked top-K scan (one worker)",
		"world": map[string]int{
			"anon_users": anonN, "aux_users": auxN,
			"landmarks": cfg.Landmarks, "max_bigrams": 300,
		},
		"ns_per_pair": nsPerPair,
		"kernel_speedup": map[string]float64{
			"batch-q1":  speedup("batch-q1"),
			"batch-q4":  speedup("batch-q4"),
			"batch-q8":  speedup("batch-q8"),
			"batch-q16": speedup("batch-q16"),
		},
		"qps":                qps,
		"querybatch_speedup": querySpeedup,
		"baseline":           "flat-q1 is the per-query flat kernel (PrepareQuery + ScoreRange); batch-qN is PrepareBatch + ScoreRangeBatch at width N — parity with ScoreSlow asserted inline, bit-identical. this artifact tracks the kernel-level win under the serving flush",
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_batch.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_batch.json: %v", err)
		}
	}
	if s := speedup("batch-q8"); s > 0 && s < 1.5 {
		b.Logf("warning: batch-q8 kernel speedup %.2fx below the 1.5x target (noise or regression)", s)
	}
}

// BenchmarkWarmRestart measures the warm-restart subsystem: booting a
// query-ready world cold (PrepareWorld: extraction, attribute sets, UDA
// build, scorer precomputation, index build) versus warm (LoadWorld over a
// snapshot file, mmap and copying paths), each timed through its first
// answered query so both sides pay full pipeline materialization. Parity
// is asserted inline before any timing — the loaded world must answer a
// sample of queries bit-identically to the world that saved it — so
// BENCH_snapshot.json can never report a speedup obtained by changing
// results. The summary lands in BENCH_snapshot.json.
func BenchmarkWarmRestart(b *testing.B) {
	w := GenerateWorld(WorldConfig{WebMDUsers: 400, HBUsers: 400, Seed: 111})
	split := SplitClosedWorld(w.WebMD, 0.5, 112)
	opt := DefaultOptions()
	opt.MaxBigrams = 300
	opt.Landmarks = 10
	opt.Shards = 2
	opt.Prune = true

	path := filepath.Join(b.TempDir(), "bench.snap")

	// Reference world, snapshot, and the inline parity gate.
	ref := PrepareWorld(split.Anon, split.Aux, opt)
	if err := ref.Snapshot(path); err != nil {
		b.Fatalf("Snapshot: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	anonN, auxN := ref.Sizes()
	const k = 10
	for _, noMmap := range []bool{false, true} {
		lw, err := LoadWorld(path, LoadOptions{NoMmap: noMmap})
		if err != nil {
			b.Fatalf("LoadWorld(noMmap=%v): %v", noMmap, err)
		}
		for u := 0; u < anonN; u += 7 {
			want, err := ref.QueryUser(u, k, opt)
			if err != nil {
				b.Fatal(err)
			}
			got, err := lw.QueryUser(u, k, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != len(want) {
				b.Fatalf("user %d: restored returned %d candidates, original %d", u, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					b.Fatalf("user %d candidate %d: restored %+v, original %+v — snapshot parity broken", u, i, got[i], want[i])
				}
			}
		}
	}

	// Each timed iteration boots a world from scratch and answers one
	// query, so the contrast is time-to-first-answer.
	ms := map[string]float64{}
	firstQuery := func(b *testing.B, pw *PreparedWorld) {
		cands, err := pw.QueryUser(0, k, opt)
		if err != nil || len(cands) == 0 {
			b.Fatalf("first query: %d candidates, err %v", len(cands), err)
		}
	}
	b.Run("cold-prepare", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			firstQuery(b, PrepareWorld(split.Anon, split.Aux, opt))
		}
		v := float64(time.Since(start).Milliseconds()) / float64(b.N)
		b.ReportMetric(v, "ms/boot")
		if prev, ok := ms["cold_prepare"]; !ok || v < prev {
			ms["cold_prepare"] = v
		}
	})
	for _, mode := range []struct {
		name   string
		noMmap bool
	}{{"warm-load-mmap", false}, {"warm-load-copy", true}} {
		b.Run(mode.name, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				lw, err := LoadWorld(path, LoadOptions{NoMmap: mode.noMmap})
				if err != nil {
					b.Fatal(err)
				}
				firstQuery(b, lw)
			}
			v := float64(time.Since(start).Microseconds()) / 1000 / float64(b.N)
			b.ReportMetric(v, "ms/boot")
			key := strings.ReplaceAll(mode.name, "-", "_")
			if prev, ok := ms[key]; !ok || v < prev {
				ms[key] = v
			}
		})
	}

	speedup := 0.0
	if ms["warm_load_mmap"] > 0 {
		speedup = ms["cold_prepare"] / ms["warm_load_mmap"]
	}
	summary := map[string]any{
		"benchmark":      "warm-restart",
		"generated":      time.Now().UTC().Format(time.RFC3339),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"single_core":    runtime.GOMAXPROCS(0) == 1,
		"interpretation": "cold boot replays extraction + UDA build + scorer precomputation + index build; warm boot mmaps the snapshot and adopts the saved arrays, so the speedup is work elided, not parallelism — it holds on single-core runners and grows with corpus size",
		"world": map[string]int{
			"anon_users": anonN, "aux_users": auxN,
			"landmarks": opt.Landmarks, "max_bigrams": opt.MaxBigrams,
			"shards": opt.Shards,
		},
		"prune":          true,
		"snapshot_bytes": fi.Size(),
		"ms_per_boot":    ms,
		"speedup":        speedup,
		"baseline":       "cold-prepare is PrepareWorld + first QueryUser (full pipeline materialization); warm-load is LoadWorld + first QueryUser over the same snapshot — parity asserted inline, bit-identical",
	}
	if buf, err := json.MarshalIndent(summary, "", "  "); err == nil {
		if err := os.WriteFile("BENCH_snapshot.json", append(buf, '\n'), 0o644); err != nil {
			b.Logf("writing BENCH_snapshot.json: %v", err)
		}
	}
	if speedup > 0 && speedup < 10 {
		b.Logf("warning: warm restart speedup %.1fx below the 10x target (noise or regression)", speedup)
	}
}
