package main

// The benchmark's fixed vocabulary: metric names with unit, direction and
// regression bound, and the four workloads with their world sizes.
// BENCHMARK.json at the repository root registers the same names (a test
// pins the two against each other), README.md explains them.

// metric names one reported number.
type metric struct {
	Name, Unit string
	// Higher is true when a larger value is better.
	Higher bool
	// Bound is the share of the parent commit's median by which an
	// end-to-end metric may worsen before it counts as a regression.
	// Per-layer metrics have none.
	Bound float64
}

// endToEnd lists the metrics a user of the served attack sees. Every
// workload reports every one of them from the untraced run, and none may
// read zero (a bound is a share of the median). The timing bounds sit at
// the 25% cap: the 2-core virtual machine the benchmark was defined on has
// minute-long episodes in which everything runs a quarter slower, and a
// bound has to hold the spread of ten runs that may include some (README.md
// has the measured spreads).
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25},
	{"qps", "1/s", true, 0.25},
	{"lat_p50_ms", "ms", false, 0.25},
	{"lat_p95_ms", "ms", false, 0.25},
	{"success_ratio", "ratio", true, 0.001},
	{"recall_at_10", "ratio", true, 0.001},
	{"ingest_per_s", "1/s", true, 0.25},
	{"ingest_p50_ms", "ms", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.15},
}

// perLayer lists the traced run's metrics; the prefix is the module the
// number belongs to. A metric a workload does not exercise reads 0.
var perLayer = []metric{
	{Name: "synth.generate_s", Unit: "s"},
	{Name: "synth.users", Unit: "count", Higher: true},
	{Name: "synth.posts", Unit: "count", Higher: true},

	{Name: "features.build_s", Unit: "s"},
	{Name: "stylometry.extract_us_per_post", Unit: "us"},
	{Name: "graph.uda_build_s", Unit: "s"},
	{Name: "similarity.scorer_build_s", Unit: "s"},
	{Name: "index.build_s", Unit: "s"},
	{Name: "shard.build_s", Unit: "s"},
	{Name: "dehealth.prepare_s", Unit: "s"},

	{Name: "features.append_user_us", Unit: "us"},
	{Name: "dehealth.ingest_user_us", Unit: "us"},
	{Name: "serve.ingest_http_us", Unit: "us"},

	{Name: "similarity.prepare_query_us", Unit: "us"},
	{Name: "similarity.score_range_ns_per_pair", Unit: "ns"},
	{Name: "similarity.score_batch8_ns_per_pair", Unit: "ns"},
	{Name: "similarity.score_with_ns_per_pair", Unit: "ns"},
	{Name: "similarity.pairs_per_query", Unit: "count"},

	{Name: "index.candidate_frac", Unit: "ratio"},
	{Name: "index.candidates_us", Unit: "us"},
	{Name: "index.postings_skipped_per_query", Unit: "count", Higher: true},
	{Name: "index.blocks_checked_per_query", Unit: "count"},
	{Name: "index.blocks_skipped_per_query", Unit: "count", Higher: true},
	{Name: "index.cursors_demoted_per_query", Unit: "count", Higher: true},

	{Name: "shard.topk_us", Unit: "us"},
	{Name: "shard.topk_max_us", Unit: "us"},
	{Name: "shard.topk_batch8_us_per_query", Unit: "us"},
	{Name: "shard.topk_approx_us", Unit: "us"},
	{Name: "shard.topk_pruned_us", Unit: "us"},
	{Name: "shard.rescored_per_query", Unit: "count"},
	{Name: "shard.rescore_useful_ratio", Unit: "ratio", Higher: true},
	{Name: "shard.merge_us", Unit: "us"},
	{Name: "shard.fanout_self_us", Unit: "us"},
	{Name: "shard.fanout_speedup", Unit: "ratio", Higher: true},

	{Name: "core.query_user_us", Unit: "us"},
	{Name: "core.query_batch8_us_per_query", Unit: "us"},
	{Name: "core.self_us", Unit: "us"},
	{Name: "core.allocs_per_query", Unit: "count"},
	{Name: "core.bytes_per_query", Unit: "B"},
	{Name: "core.topk_da_success", Unit: "ratio", Higher: true},
	{Name: "dehealth.query_user_us", Unit: "us"},
	{Name: "dehealth.self_us", Unit: "us"},

	{Name: "snapshot.save_s", Unit: "s"},
	{Name: "snapshot.bytes", Unit: "B"},
	{Name: "snapshot.load_mmap_s", Unit: "s"},
	{Name: "snapshot.load_copy_s", Unit: "s"},
	{Name: "snapshot.slice_write_s", Unit: "s"},
	{Name: "snapshot.slice_load_s", Unit: "s"},

	{Name: "serve.http_query_us", Unit: "us"},
	{Name: "serve.self_us", Unit: "us"},
	{Name: "serve.mean_batch_size", Unit: "count", Higher: true},
	{Name: "serve.lat_p99_ms", Unit: "ms"},

	{Name: "router.http_query_us", Unit: "us"},
	{Name: "router.shard_rpc_us", Unit: "us"},
	{Name: "router.self_us", Unit: "us"},
	{Name: "router.retries", Unit: "count"},
	{Name: "router.hedges", Unit: "count"},
	{Name: "router.partials", Unit: "count"},
	{Name: "router.lat_p99_ms", Unit: "ms"},

	{Name: "bench.loopback_rtt_us", Unit: "us"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Higher: true},
}

// sizes fixes the generated worlds. fullSizes is what BENCHMARK.json
// measures; the smoke test shrinks them so `go test ./...` stays fast.
type sizes struct {
	// DenseAccounts is the synth WebMD-like forum's account count before
	// the closed-world 50/50 split (§V-A).
	DenseAccounts int
	// SparseAux, SparseAnon, SparseCommunity and SparseDim shape the
	// synth.SparseAttrUDA pair of sparse_walk.
	SparseAux, SparseAnon, SparseCommunity, SparseDim int
	// IngestAccounts sizes the side forum whose posts become the mixed
	// phase's new two-post users.
	IngestAccounts int
	// Samples is how many seeded users the correctness check and the
	// traced run query; OracleSamples of them are also checked against the
	// ScoreSlow + sort oracle in the traced run.
	Samples, OracleSamples int
}

var fullSizes = sizes{
	DenseAccounts:   8000,
	SparseAux:       100000,
	SparseAnon:      2000,
	SparseCommunity: 40,
	SparseDim:       16384,
	IngestAccounts:  500,
	Samples:         200,
	OracleSamples:   50,
}

// Serving and scoring constants shared by every workload: dehealthd's flag
// defaults, the paper's K, and a shard count fixed (not NumCPU) so the
// world is the same on every machine.
const (
	topK            = 10
	worldShards     = 2
	serveBatch      = 32
	serveFlushMS    = 2
	routedBatch     = 8
	sparseLandmarks = 5
	clientConns     = 2
)

// The paper's WebMD crawl, printed beside every world's dimensions.
const (
	paperUsers = 89393
	paperPosts = 506000
)

// workload is one named traffic mix over one served world.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Setups is how many times a run builds the deployment from the ready
	// inputs; setup_s is the median. Cheap set-ups repeat, the dense ones
	// (seconds of feature extraction each) run once.
	Setups int
	// Sparse selects the synth.SparseAttrUDA inputs over the dense forum.
	Sparse bool
	// Approx sends every query with "approx": true to a world prepared
	// with the approximate tier at its bit-identical setting.
	Approx bool
	// Routed serves through 2 mmap-booted snapshot slices behind the
	// router and queries POST /v1/batch with routedBatch users.
	Routed bool
}

var workloads = []workload{
	{Name: "dense_exact", Setups: 1,
		Why: "8,000-account synth WebMD forum split 50/50, exact /v1/query: every query scans the whole auxiliary side, so similarity+shard do the work and index none"},
	{Name: "dense_walk", Setups: 1, Approx: true,
		Why: "same dense world with the approximate tier at theta 1: identical scores from index cursors + per-survivor ScoreWith, the regime where the walk is slower than the scan"},
	{Name: "sparse_walk", Setups: 5, Sparse: true, Approx: true,
		Why: "SparseAttrUDA at paper scale, 100,000 aux / 2,000 anon users, approximate walk: ~50us of scoring per query, so the serve dispatcher and index dominate and kernels are bypassed"},
	{Name: "routed_batch", Setups: 1, Routed: true,
		Why: "dense world cut into 2 mmap-booted snapshot slices behind the router, /v1/batch of 8: snapshot boot, the router hop and merge, and the width-8 batched kernel"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
