package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dehealth"
	"dehealth/internal/core"
	"dehealth/internal/corpus"
	"dehealth/internal/features"
	"dehealth/internal/graph"
	"dehealth/internal/index"
	"dehealth/internal/serve"
	"dehealth/internal/shard"
	"dehealth/internal/similarity"
)

// layers is the served world rebuilt one internal constructor at a time,
// so the traced run can call into every layer of a query separately and
// time each build step. It answers bit-identically to the deployment.
type layers struct {
	anonS, auxS *features.Store // nil on sparse_walk
	g1, g2      *graph.UDA
	sc          *similarity.Scorer
	// exact, approx and pruned are the three shard engines over the same
	// 2-shard partition; single is the workload's engine on one shard.
	exact, approx, pruned, single *shard.World
	astats                        *index.ApproxStats
	pipe                          *core.Pipeline // nil on sparse_walk
}

// probes accumulates named durations; a metric is their mean.
type probes map[string]tally

type tally struct {
	sum time.Duration
	n   int
}

func (p probes) add(name string, d time.Duration) {
	t := p[name]
	p[name] = tally{t.sum + d, t.n + 1}
}

// us is the mean of a probe in microseconds (0 when it never ran).
func (p probes) us(name string) float64 {
	t := p[name]
	if t.n == 0 {
		return 0
	}
	return float64(t.sum) / float64(t.n) / float64(time.Microsecond)
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// copyDataset gives the layer build its own growable dataset: ingestion
// appends to the dataset in place, and the deployment already owns the
// original.
func copyDataset(d *corpus.Dataset) *corpus.Dataset {
	return &corpus.Dataset{
		Name:    d.Name,
		Users:   append([]corpus.User(nil), d.Users...),
		Threads: append([]corpus.Thread(nil), d.Threads...),
		Posts:   append([]corpus.Post(nil), d.Posts...),
	}
}

// buildLayers constructs the world layer by layer, recording each step's
// wall time under its per-layer metric name.
func buildLayers(w workload, in *inputs, m map[string]float64) *layers {
	l := &layers{astats: &index.ApproxStats{}}
	step := func(name string, f func()) { m[name] = timed(f).Seconds() }
	cfg := sparseSimilarity
	if w.Sparse {
		l.g1, l.g2 = in.g1, in.g2
	} else {
		cfg.Landmarks = dehealth.DefaultOptions().Landmarks
		step("features.build_s", func() {
			l.anonS, l.auxS = features.BuildPair(copyDataset(in.split.Anon), in.split.Aux, 0, features.Options{})
		})
		posts := in.split.Aux.Posts[:min(300, len(in.split.Aux.Posts))]
		row := make([]float64, l.auxS.Extractor.NumFeatures())
		serial := timed(func() {
			for _, p := range posts {
				l.auxS.Extractor.ExtractInto(row, p.Text)
			}
		})
		m["stylometry.extract_us_per_post"] = float64(serial) / float64(time.Microsecond) / float64(len(posts))
		step("graph.uda_build_s", func() { l.g1, l.g2 = l.anonS.UDA(), l.auxS.UDA() })
	}
	step("similarity.scorer_build_s", func() { l.sc = similarity.NewScorer(l.g1, l.g2, cfg) })
	step("shard.build_s", func() { l.exact = shard.New(l.sc, l.g2, l.auxS, worldShards) })
	step("index.build_s", func() { l.approx = l.exact.WithApprox(index.Config{}, l.astats) })
	l.pruned = l.approx.WithPruning(index.Config{}, nil) // shares the indexes just built
	l.single = shard.New(l.sc, l.g2, l.auxS, 1)
	if w.Approx {
		l.single = l.single.WithApprox(index.Config{}, nil)
	}
	if !w.Sparse {
		// The pipeline adopts the scorer built above rather than a second
		// copy of its caches, so every layer is timed on the same memory.
		l.pipe = core.NewRestoredPipeline(l.anonS, l.auxS, l.sc, worldShards)
		if w.Approx {
			l.pipe = l.pipe.Approx(index.Config{}, nil)
		}
	}
	return l
}

// scanBlock mirrors the shard scan's block size so the similarity spans
// stream the window the way TopK does.
const scanBlock = 512

// tracer holds what the traced queries share: the deployment and its
// layer-built twin, the recorder, the probe tallies, and the scratch the
// kernel calls write into.
type tracer struct {
	w   workload
	d   *deployment
	l   *layers
	c   *conn
	rec *recorder

	pr     probes
	counts map[string]float64

	icfg      index.Config
	ap        index.ApproxParams
	prof      similarity.QueryProfile
	bprof     similarity.BatchProfile
	uncounted index.ApproxStats // absorbs the counters of warm and timed calls
	buf       []float64
	bbuf      [][]float64
}

// traceQueries records, for every traced query, one span per layer
// boundary of the path the served request takes, and once per eight traced
// users the probes of every engine on this world. queries holds the users
// of each request.
func traceQueries(w workload, d *deployment, l *layers, c *conn, rec *recorder, queries [][]int) (probes, map[string]float64, error) {
	t := &tracer{
		w: w, d: d, l: l, c: c, rec: rec,
		pr: probes{}, counts: map[string]float64{},
		icfg: index.Config{}.WithDefaults(),
		buf:  make([]float64, scanBlock), bbuf: make([][]float64, routedBatch),
	}
	for i := range t.bbuf {
		t.bbuf[i] = make([]float64, scanBlock)
	}
	for q, users := range queries {
		if err := t.spans(q, users); err != nil {
			return nil, nil, fmt.Errorf("traced query %d: %w", q, err)
		}
		if q*len(users)%routedBatch == 0 {
			t.probe(users[0], batchOf(queries, q))
		}
	}
	return t.pr, t.counts, nil
}

// spans records one query's span chain. It follows what the backend really
// calls for one request on an idle server. The dispatcher hands every flush
// to QueryBatch, so an exact /v1/query is a width-1 batch: one worker
// walking the shards in sequence through the batched kernel. An approximate
// one is QueryUserApprox: the shards walked in parallel, each survivor
// rescored by ScoreWith. A routed batch is one RPC per shard in parallel,
// each slice server splitting its users across its workers.
func (t *tracer) spans(q int, users []int) error {
	w, d, l, rec := t.w, t.d, t.l, t.rec
	var err error
	rootName := "serve.http_query"
	if w.Routed {
		rootName = "router.http_batch"
	}
	root := rec.time(0, q, rootName, false, func() { _, err = t.c.query(d, users) })
	if err != nil {
		return err
	}
	// batchScan spans one shard's batched scan and its two kernel calls.
	batchScan := func(parent int, sh *shard.Shard, users []int, parallel bool) {
		tb := rec.warm(parent, q, "shard.topk_batch", parallel, func() { sh.TopKBatch(users, topK) })
		rec.warm(tb, q, "similarity.prepare_batch", false, func() { sh.Scorer.PrepareBatch(users, &t.bprof) })
		rec.warm(tb, q, "similarity.score_range_batch", false, func() { scoreBatch(sh, &t.bprof, t.bbuf[:len(users)]) })
	}

	switch {
	case w.Routed:
		body, _ := json.Marshal(serve.InternalQuery{Users: users, K: topK})
		for i, base := range d.shards {
			var status int
			rpc := rec.time(root, q, "serve.internal_query", true, func() { status, _, err = t.c.post(base+"/internal/query", body) })
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("shard %d rpc: status %d: %v", i, status, err)
			}
			sw := d.slices[i]
			dh := rec.warm(rpc, q, "dehealth.query_batch", false, func() { _, err = sw.QueryBatch(users, topK, sw.PreparedOptions()) })
			if err != nil {
				return err
			}
			// A slice server cuts the batch into one chunk per worker
			// (shard.World.QueryBatch) and scans them in parallel.
			workers := min(runtime.GOMAXPROCS(0), len(users))
			chunk := (len(users) + workers - 1) / workers
			for lo := 0; lo < len(users); lo += chunk {
				batchScan(dh, l.exact.Shards()[i], users[lo:min(lo+chunk, len(users))], true)
			}
		}
	case w.Approx:
		u, parent := users[0], root
		if !w.Sparse {
			opt := d.opt
			opt.Approx.Enabled = true
			dh := rec.warm(root, q, "dehealth.query_batch", false, func() { _, err = d.pw.QueryBatch(users, topK, opt) })
			if err != nil {
				return err
			}
			parent = rec.warm(dh, q, "core.query_batch", false, func() { l.pipe.QueryBatchApprox(users, topK, 0, t.ap) })
		}
		wq := rec.warm(parent, q, "shard.world_batch", false, func() { l.approx.QueryBatchApprox(users, topK, 0, t.ap) })
		for _, sh := range l.approx.Shards() {
			before := l.astats.Snapshot().Rescored
			sh.TopKApprox(u, topK, t.icfg, t.ap, l.astats)
			rescored := int(l.astats.Snapshot().Rescored - before)
			tk := rec.warm(wq, q, "shard.topk_approx", true, func() { sh.TopKApprox(u, topK, t.icfg, t.ap, &t.uncounted) })
			rec.warm(tk, q, "similarity.prepare_query", false, func() { sh.Scorer.PrepareQuery(u, &t.prof) })
			// The cursor walk cannot be called from outside TopKApprox, so
			// it stays in that span's self time; only the rescoring has a
			// span of its own. The walk's survivors all share an attribute
			// with the query, so rescoring as many overlap candidates costs
			// what the walk paid.
			s := sh.Index.AcquireScratch()
			cands := sh.Index.Candidates(sh.Scorer.AnonAttrs(u), s)
			cands = cands[:min(rescored, len(cands))]
			rec.warm(tk, q, "similarity.score_with", false, func() { scoreWith(sh, &t.prof, cands) })
			sh.Index.ReleaseScratch(s)
		}
	default:
		dh := rec.warm(root, q, "dehealth.query_batch", false, func() { _, err = d.pw.QueryBatch(users, topK, d.opt) })
		if err != nil {
			return err
		}
		co := rec.warm(dh, q, "core.query_batch", false, func() { l.pipe.QueryBatch(users, topK, 0) })
		wq := rec.warm(co, q, "shard.world_batch", false, func() { l.exact.QueryBatch(users, topK, 0) })
		for _, sh := range l.exact.Shards() {
			batchScan(wq, sh, users, false)
		}
	}
	return nil
}

// probe times every engine on this world for user u (and the width-8
// calls for batch), whatever the workload serves, so pruner, walk and scan
// are measured side by side on both kinds of world. Each call is warmed
// like the spans. One client, so counter deltas are exact.
func (t *tracer) probe(u int, batch []int) {
	w, d, l := t.w, t.d, t.l
	probe := func(name string, f func()) time.Duration {
		warmUp(f)
		dur := timed(f)
		t.pr.add(name, dur)
		return dur
	}
	worldQuery := func(wd *shard.World) func() {
		if w.Approx {
			return func() { wd.QueryUserApprox(u, topK, t.ap) }
		}
		return func() { wd.QueryUser(u, topK) }
	}
	if !w.Sparse {
		probe("dehealth.query_user", func() { _, _ = d.pw.QueryUser(u, topK, d.opt) }) // u was just served: in range
		if w.Approx {
			probe("core.query_user", func() { l.pipe.QueryUserApprox(u, topK, t.ap) })
		} else {
			probe("core.query_user", func() { l.pipe.QueryUser(u, topK) })
		}
		probe("core.query_batch8", func() { l.pipe.QueryBatch(batch, topK, 0) })
	}
	world := l.exact
	if w.Approx {
		world = l.approx
	}
	wq := probe("shard.world_query", worldQuery(world))
	probe("shard.single_query", worldQuery(l.single))

	var slowest, slowestApprox, slowestPruned, slowestBatch time.Duration
	parts := make([][]shard.Candidate, 0, worldShards)
	for i, sh := range l.exact.Shards() {
		var part []shard.Candidate
		slowest = max(slowest, probe("shard.topk", func() { part = sh.TopK(u, topK) }))
		parts = append(parts, part)
		ash, psh := l.approx.Shards()[i], l.pruned.Shards()[i]
		before := l.astats.Snapshot()
		ash.TopKApprox(u, topK, t.icfg, t.ap, l.astats)
		after := l.astats.Snapshot()
		t.counts["shard.rescored"] += float64(after.Rescored - before.Rescored)
		t.counts["index.postings_skipped"] += float64(after.PostingsSkipped - before.PostingsSkipped)
		t.counts["index.blocks_checked"] += float64(after.BlocksChecked - before.BlocksChecked)
		t.counts["index.blocks_skipped"] += float64(after.BlocksSkipped - before.BlocksSkipped)
		t.counts["index.cursors_demoted"] += float64(after.CursorsDemoted - before.CursorsDemoted)
		slowestApprox = max(slowestApprox, probe("shard.topk_approx", func() { ash.TopKApprox(u, topK, t.icfg, t.ap, &t.uncounted) }))
		slowestPruned = max(slowestPruned, probe("shard.topk_pruned", func() { psh.TopKPruned(u, topK, t.icfg, &index.Stats{}) }))
		slowestBatch = max(slowestBatch, probe("shard.topk_batch", func() { sh.TopKBatch(batch, topK) }))

		probe("similarity.prepare_query", func() { sh.Scorer.PrepareQuery(u, &t.prof) })
		probe("similarity.score_range", func() { scoreRange(sh, &t.prof, t.buf) })
		sh.Scorer.PrepareBatch(batch, &t.bprof)
		probe("similarity.score_batch8", func() { scoreBatch(sh, &t.bprof, t.bbuf[:len(batch)]) })
		s := ash.Index.AcquireScratch()
		var cands []int32
		probe("index.candidates", func() { cands = ash.Index.Candidates(sh.Scorer.AnonAttrs(u), s) })
		t.counts["index.candidates"] += float64(len(cands))
		probe("similarity.score_with", func() { scoreWith(sh, &t.prof, cands) })
		ash.Index.ReleaseScratch(s)
	}
	t.counts["queries"]++
	t.counts["batch_users"] += float64(len(batch))
	t.pr.add("shard.topk_max", slowest)
	t.pr.add("shard.topk_approx_max", slowestApprox)
	t.pr.add("shard.topk_pruned_max", slowestPruned)
	t.pr.add("shard.topk_batch_max", slowestBatch)
	t.pr.add("shard.merge", timed(func() { shard.MergeTopK(parts, topK) }))
	engine := slowest
	if w.Approx {
		engine = slowestApprox
	}
	t.pr.add("shard.fanout_self", max(wq-engine, 0))
}

// batchOf gathers the first user of up to routedBatch consecutive traced
// queries starting at q.
func batchOf(queries [][]int, q int) []int {
	var out []int
	for _, users := range queries[q:min(q+routedBatch, len(queries))] {
		out = append(out, users[0])
	}
	return out
}

// scoreWith rescores the given window-local candidates one by one.
func scoreWith(sh *shard.Shard, prof *similarity.QueryProfile, cands []int32) {
	for _, j := range cands {
		sh.Scorer.ScoreWith(prof, int(j))
	}
}

// scoreRange streams one prepared query over a shard's whole window.
func scoreRange(sh *shard.Shard, prof *similarity.QueryProfile, buf []float64) {
	n := sh.NumUsers()
	for lo := 0; lo < n; lo += scanBlock {
		hi := min(lo+scanBlock, n)
		sh.Scorer.ScoreRange(prof, lo, hi, buf[:hi-lo])
	}
}

// scoreBatch streams a prepared batch over a shard's whole window.
func scoreBatch(sh *shard.Shard, bp *similarity.BatchProfile, buf [][]float64) {
	n := sh.NumUsers()
	out := make([][]float64, len(buf))
	for lo := 0; lo < n; lo += scanBlock {
		hi := min(lo+scanBlock, n)
		for i := range buf {
			out[i] = buf[i][:hi-lo]
		}
		sh.Scorer.ScoreRangeBatch(bp, lo, hi, out)
	}
}

// layerMetrics turns the probes and counters of a traced run into the
// per-layer metric values.
func layerMetrics(w workload, in *inputs, pr probes, counts map[string]float64, m map[string]float64) {
	nq := max(counts["queries"], 1)
	perShardPairs := float64(in.auxUsers) / worldShards
	batchWidth := max(counts["batch_users"]/nq, 1)
	m["similarity.prepare_query_us"] = pr.us("similarity.prepare_query")
	m["similarity.score_range_ns_per_pair"] = 1000 * pr.us("similarity.score_range") / perShardPairs
	m["similarity.score_batch8_ns_per_pair"] = 1000 * pr.us("similarity.score_batch8") / (perShardPairs * batchWidth)
	if c := counts["index.candidates"]; c > 0 {
		m["similarity.score_with_ns_per_pair"] = 1000 * pr.us("similarity.score_with") * nq * worldShards / c
	}
	m["similarity.pairs_per_query"] = float64(in.auxUsers)
	if w.Approx {
		m["similarity.pairs_per_query"] = counts["shard.rescored"] / nq
	}

	m["index.candidate_frac"] = counts["index.candidates"] / nq / float64(in.auxUsers)
	m["index.candidates_us"] = pr.us("index.candidates")
	m["index.postings_skipped_per_query"] = counts["index.postings_skipped"] / nq
	m["index.blocks_checked_per_query"] = counts["index.blocks_checked"] / nq
	m["index.blocks_skipped_per_query"] = counts["index.blocks_skipped"] / nq
	m["index.cursors_demoted_per_query"] = counts["index.cursors_demoted"] / nq

	m["shard.topk_us"] = pr.us("shard.topk")
	m["shard.topk_max_us"] = pr.us("shard.topk_max")
	m["shard.topk_batch8_us_per_query"] = pr.us("shard.topk_batch_max") / batchWidth
	m["shard.topk_approx_us"] = pr.us("shard.topk_approx_max")
	m["shard.topk_pruned_us"] = pr.us("shard.topk_pruned_max")
	m["shard.rescored_per_query"] = counts["shard.rescored"] / nq
	if r := counts["shard.rescored"]; r > 0 {
		m["shard.rescore_useful_ratio"] = topK * nq / r
	}
	m["shard.merge_us"] = pr.us("shard.merge")
	m["shard.fanout_self_us"] = pr.us("shard.fanout_self")
	if wq := pr.us("shard.world_query"); wq > 0 {
		m["shard.fanout_speedup"] = pr.us("shard.single_query") / wq
	}

	m["core.query_user_us"] = pr.us("core.query_user")
	m["core.query_batch8_us_per_query"] = pr.us("core.query_batch8") / batchWidth
	m["dehealth.query_user_us"] = pr.us("dehealth.query_user")
	if !w.Sparse {
		m["core.self_us"] = max(pr.us("core.query_user")-pr.us("shard.world_query"), 0)
		m["dehealth.self_us"] = max(pr.us("dehealth.query_user")-pr.us("core.query_user"), 0)
	}
}

// spanMetrics derives the serve and router layer metrics from the traced
// queries' spans, and returns the mean share of each root span its
// critical-path self times add up to.
func spanMetrics(w workload, t *spanTree, m map[string]float64) float64 {
	dur, selfSum, n := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		dur[s.Name] += float64(s.dur()) / 1000
		selfSum[s.Name] += float64(t.self[s.ID]) / 1000
		n[s.Name]++
	}
	meanOf := func(sum map[string]float64, name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return sum[name] / n[name]
	}
	if w.Routed {
		m["router.http_query_us"] = meanOf(dur, "router.http_batch")
		m["router.self_us"] = meanOf(selfSum, "router.http_batch")
		m["router.shard_rpc_us"] = meanOf(dur, "serve.internal_query")
		m["serve.http_query_us"] = meanOf(dur, "serve.internal_query")
		m["serve.self_us"] = meanOf(selfSum, "serve.internal_query")
	} else {
		m["serve.http_query_us"] = meanOf(dur, "serve.http_query")
		m["serve.self_us"] = meanOf(selfSum, "serve.http_query")
	}
	ratio, roots := 0.0, 0
	for _, root := range t.children[0] {
		if root.dur() > 0 {
			ratio += float64(t.criticalSelfSum(root)) / float64(root.dur())
			roots++
		}
	}
	if roots == 0 {
		return 0
	}
	return ratio / float64(roots)
}

// layerShares sums, per layer (the span name's prefix), the self time
// along each traced query's critical path, in microseconds per query. The
// shares of one query add up to its served request's duration.
func layerShares(t *spanTree, queries int) map[string]float64 {
	out := map[string]float64{}
	for _, root := range t.children[0] {
		for _, s := range t.criticalPath(root) {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += float64(t.self[s.ID]) / 1000 / float64(max(queries, 1))
		}
	}
	return out
}

// oracleCheck holds the served answers of the first n sample users against
// ScoreSlow + sort on the layer-built scorer.
func oracleCheck(l *layers, sample []int, served map[int][]candidate, n int) error {
	for _, u := range sample[:min(n, len(sample))] {
		got, ok := served[u]
		if !ok {
			return fmt.Errorf("oracle: no served answer for user %d", u)
		}
		if err := sameTopK(got, slowTopK(l.sc, u, topK)); err != nil {
			return fmt.Errorf("oracle: user %d: %w", u, err)
		}
	}
	return nil
}

// allocProbe measures heap allocations and bytes per core-layer query.
func allocProbe(w workload, l *layers, sample []int, m map[string]float64) {
	if l.pipe == nil {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range sample {
		if w.Approx {
			l.pipe.QueryUserApprox(u, topK, index.ApproxParams{})
		} else {
			l.pipe.QueryUser(u, topK)
		}
	}
	runtime.ReadMemStats(&after)
	m["core.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(len(sample))
	m["core.bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(sample))
}

// ingestProbes times the write path at each layer, last of all because it
// grows the worlds: the feature store's append, the public IngestUser, and
// POST /v1/ingest on the idle server.
func ingestProbes(d *deployment, l *layers, c *conn, newUsers []newUser, m map[string]float64) error {
	const n = 30
	if len(newUsers) < 3*n {
		return nil
	}
	posts := func(u newUser) []features.IncomingPost {
		out := make([]features.IncomingPost, len(u.Posts))
		for i, p := range u.Posts {
			out[i] = features.IncomingPost{Thread: features.NewThread, Text: p.Text}
			if p.Thread != nil {
				out[i].Thread = *p.Thread
			}
		}
		return out
	}
	var err error
	if l.anonS != nil {
		t := timed(func() {
			for _, u := range newUsers[:n] {
				if _, e := l.anonS.AppendUser(corpus.User{Name: u.Name, TrueIdentity: -1}, posts(u)); e != nil {
					err = e
				}
			}
		})
		m["features.append_user_us"] = float64(t) / n / float64(time.Microsecond)
	}
	if d.pw != nil && d.rt == nil {
		t := timed(func() {
			for _, u := range newUsers[n : 2*n] {
				if _, e := d.pw.IngestUser(u.Name, posts(u)); e != nil {
					err = e
				}
			}
		})
		m["dehealth.ingest_user_us"] = float64(t) / n / float64(time.Microsecond)
	}
	t := timed(func() {
		for _, u := range newUsers[2*n : 3*n] {
			if e := c.ingestUser(d, u); e != nil {
				err = e
			}
		}
	})
	m["serve.ingest_http_us"] = float64(t) / n / float64(time.Microsecond)
	return err
}

// snapshotProbes times a full snapshot's save and both load paths.
func snapshotProbes(d *deployment, tmp string, m map[string]float64) error {
	path := filepath.Join(tmp, "full.snap")
	defer os.Remove(path)
	var err error
	m["snapshot.save_s"] = timed(func() { err = d.pw.Snapshot(path) }).Seconds()
	if err != nil {
		return err
	}
	if fi, err := os.Stat(path); err == nil {
		m["snapshot.bytes"] = float64(fi.Size())
	}
	for name, opt := range map[string]dehealth.LoadOptions{
		"snapshot.load_mmap_s": {},
		"snapshot.load_copy_s": {NoMmap: true},
	} {
		m[name] = timed(func() { _, err = dehealth.LoadWorld(path, opt) }).Seconds()
		if err != nil {
			return err
		}
	}
	return nil
}

// loopbackRTT calibrates the machine's HTTP floor: the mean round trip of
// a POST to a handler that does nothing.
func loopbackRTT(c *conn) (float64, error) {
	var d deployment
	defer d.close()
	base, err := d.listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	if err != nil {
		return 0, err
	}
	const n = 200
	var sum time.Duration
	for i := 0; i < n+20; i++ {
		t := timed(func() { _, _, err = c.post(base, []byte("{}")) })
		if err != nil {
			return 0, err
		}
		if i >= 20 { // the first requests open the connection
			sum += t
		}
	}
	return float64(sum) / n / float64(time.Microsecond), nil
}

// getJSON decodes the reply of a GET, for the servers' /v1/stats.
func getJSON(url string, v any) error {
	client := &http.Client{Timeout: requestTimeout}
	defer client.CloseIdleConnections()
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
