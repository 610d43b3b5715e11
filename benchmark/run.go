package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"dehealth/internal/router"
	"dehealth/internal/serve"
)

// benchmarkID tags every result document, so the compare tool can pick
// them out of captured output.
const benchmarkID = "dehealth-served-attack"

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment records where a result was measured.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Platform   string `json:"platform"`
}

// worldDims states a run's world beside the paper's WebMD crawl.
type worldDims struct {
	AnonUsers  int `json:"anon_users"`
	AuxUsers   int `json:"aux_users"`
	Users      int `json:"generated_users"`
	Posts      int `json:"generated_posts"`
	PaperUsers int `json:"paper_users"`
	PaperPosts int `json:"paper_posts"`
}

// report is the full result document of one run.
type report struct {
	Benchmark string      `json:"benchmark"`
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Seconds   int         `json:"seconds"`
	Trace     bool        `json:"trace"`
	Env       environment `json:"environment"`
	World     worldDims   `json:"world"`
	Phases    []phase     `json:"phases"`
	// Samples is the latency sample count behind each percentile metric.
	Samples map[string]int `json:"samples"`
	Correct bool           `json:"correct"`
	// Notes carries what a reader must know to trust a number: an
	// unsupported percentile, a failed check.
	Notes   []string         `json:"notes,omitempty"`
	Metrics map[string]value `json:"metrics"`
	// LayerSelfUS is the traced queries' self time per layer, in
	// microseconds per query (traced runs only).
	LayerSelfUS map[string]float64 `json:"layer_self_us,omitempty"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// peakRSSMB reads the process's resident-set high-water mark. Where /proc
// is missing it falls back to the memory the Go runtime obtained from the
// OS, which bounds it from below.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// runConfig is what one run is asked to do.
type runConfig struct {
	Workload workload
	Sizes    sizes
	Seed     int64
	// Window is the timed window; warm-up, mixed phase and the traced
	// run's loaded windows scale from it.
	Window time.Duration
	Trace  bool
	// TraceFile receives the spans of a traced run ("" keeps them in
	// memory only).
	TraceFile string
}

// warmup is a tenth of the window: the first answer has already been
// served, so it only has to open the connections and fill the pooled
// scratch.
func (c runConfig) warmup() time.Duration { return c.Window / 10 }

// run measures one workload once and returns its result document. The
// error is for runs that could not measure at all; a run that measured
// wrong answers returns a report with Correct false.
func run(cfg runConfig) (*report, error) {
	w := cfg.Workload
	rep := &report{
		Benchmark: benchmarkID, Workload: w.Name, Seed: cfg.Seed,
		Seconds: int(cfg.Window / time.Second), Trace: cfg.Trace,
		Env: currentEnvironment(), Samples: map[string]int{}, Metrics: map[string]value{},
	}
	in := generate(w, cfg.Sizes, cfg.Seed)
	rep.World = worldDims{
		AnonUsers: in.anonUsers, AuxUsers: in.auxUsers, Users: in.users, Posts: in.posts,
		PaperUsers: paperUsers, PaperPosts: paperPosts,
	}
	tmp, err := os.MkdirTemp("", "dehealth-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	conns := make([]*conn, clientConns)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}
	sample := sampleUsers(cfg.Seed+6, in.anonUsers, cfg.Sizes.Samples)

	// Set-up: ready inputs -> first correct answer, the median of Setups
	// builds. The last deployment stays up for the rest of the run.
	setups := w.Setups
	if cfg.Trace {
		setups = 1
	}
	var d *deployment
	var setupS []float64
	first := phase{Name: "setup"}
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		if d, err = deploy(w, in, tmp); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		users := sample[:min(d.batch, len(sample))]
		lists, err := conns[0].query(d, users)
		setupS = append(setupS, time.Since(start).Seconds())
		first.Seconds += setupS[i]
		first.record(len(users), 0, 0, err)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("first answer: %w", err)
		}
		for j, u := range users {
			want, err := d.oracle(u)
			if err == nil {
				err = sameTopK(lists[j], want)
			}
			if err != nil {
				d.close()
				return nil, fmt.Errorf("first answer for user %d is wrong: %w", u, err)
			}
		}
	}
	defer d.close()
	rep.Phases = append(rep.Phases, first)

	cur := &cursor{order: queryOrder(cfg.Seed+5, in.anonUsers)}
	rep.Phases = append(rep.Phases, queryPhase("warmup", d, conns, cur, cfg.warmup(), nil))

	m := map[string]float64{}
	if cfg.Trace {
		err = traced(cfg, rep, in, d, conns, cur, sample, tmp, m)
	} else {
		m["setup_s"] = median(setupS)
		err = untraced(cfg, rep, in, d, conns, cur, sample, m)
	}
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if cfg.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		rep.Metrics[s.Name] = value{Value: m[s.Name], Unit: s.Unit}
	}
	return rep, nil
}

// untraced is the run every end-to-end metric comes from: the timed
// window, the correctness check, then the mixed read/write phase.
func untraced(cfg runConfig, rep *report, in *inputs, d *deployment, conns []*conn, cur *cursor, sample []int, m map[string]float64) error {
	window := queryPhase("window", d, conns, cur, cfg.Window, nil)
	check, err := checkServed(d, conns[0], sample, in.truth)
	if err != nil {
		return err
	}
	mq, mi := mixedPhase(d, conns, cur, in.newUsers, cfg.Window/3, cfg.Seed+7)
	rep.Phases = append(rep.Phases, window, check.phase, mq, mi)

	lat := sortedCopy(window.latMS)
	m["qps"] = window.medianRate(time.Second)
	m["lat_p50_ms"] = percentile(lat, 50)
	m["lat_p95_ms"] = percentile(lat, 95)
	rep.Samples["lat_ms"] = len(lat)
	rep.noteIfUnsupported("lat_p95_ms", len(lat), 95)
	ilat := sortedCopy(mi.latMS)
	m["ingest_per_s"] = mi.rate()
	m["ingest_p50_ms"] = percentile(ilat, 50)
	rep.Samples["ingest_ms"] = len(ilat)
	tail := highestSupported(len(ilat))
	rep.Notes = append(rep.Notes, fmt.Sprintf("ingest latency p%g %.3f ms (the highest percentile with %d samples beyond it)", tail, percentile(ilat, tail), minBeyond))
	m["success_ratio"] = successRatio(window, check.phase, mq, mi)
	m["recall_at_10"] = check.Recall
	m["peak_rss_mb"] = peakRSSMB()
	rep.Correct = noteCheck(rep, check)
	if check.Truthful > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("topk_da_success %.4f (%d of %d sample users with a true mapping)", check.daSuccess(), check.Hits, check.Truthful))
	}
	return nil
}

// noteIfUnsupported says so when n samples leave too few beyond the p-th
// percentile for the named metric to be more than a handful of outliers.
func (rep *report) noteIfUnsupported(name string, n int, p float64) {
	if !supported(n, p) {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%g; p%g is the highest supported", name, n, minBeyond, p, highestSupported(n)))
	}
}

// successRatio is the share of the measured phases' requests that
// succeeded: one minus the fail ratio, where a transport error, a non-200
// status, a partial answer and a malformed body all count as failures.
func successRatio(phases ...phase) float64 {
	sent, failed := 0, 0
	for _, p := range phases {
		sent += p.Sent
		failed += p.Failed
	}
	return 1 - float64(failed)/float64(max(sent, 1))
}

// noteCheck records what the correctness check found and reports whether
// every served answer was bit-identical to the oracle.
func noteCheck(rep *report, check checkResult) bool {
	if check.Failed > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("check: %d of %d requests failed: %s", check.Failed, check.Sent, check.FirstError))
	}
	if check.Mismatches > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf("check: %d served answers differ from the in-process exact answer; first: %s", check.Mismatches, check.FirstDiff))
	}
	return check.Failed == 0 && check.Mismatches == 0 && check.Recall == 1
}

// traced is the run every per-layer metric comes from.
func traced(cfg runConfig, rep *report, in *inputs, d *deployment, conns []*conn, cur *cursor, sample []int, tmp string, m map[string]float64) error {
	w := cfg.Workload
	m["synth.generate_s"] = in.genSeconds
	m["synth.users"], m["synth.posts"] = float64(in.users), float64(in.posts)
	for name, s := range d.sub {
		m[name] = s
	}
	l := buildLayers(w, in, m)
	rtt, err := loopbackRTT(conns[0])
	if err != nil {
		return err
	}
	m["bench.loopback_rtt_us"] = rtt

	// One span per layer boundary for every sample query, on an idle system.
	rec := newRecorder()
	var queries [][]int
	for at := 0; at < len(sample); at += d.batch {
		queries = append(queries, sample[at:min(at+d.batch, len(sample))])
	}
	pr, counts, err := traceQueries(w, d, l, conns[0], rec, queries)
	if err != nil {
		return err
	}
	layerMetrics(w, in, pr, counts, m)
	tree := newSpanTree(rec.spans)
	coherence := spanMetrics(w, tree, m)
	rep.LayerSelfUS = layerShares(tree, len(queries))
	rep.Notes = append(rep.Notes, fmt.Sprintf("trace: critical-path self times sum to %.3f of the outermost span (mean over %d queries)", coherence, len(queries)))
	allocProbe(w, l, sample, m)

	// Two loaded windows, the second recording a span per request: their
	// qps ratio is what tracing costs.
	plain := queryPhase("loaded", d, conns, cur, cfg.Window/3, nil)
	spanned := queryPhase("loaded_traced", d, conns, cur, cfg.Window/3, rec)
	rep.Phases = append(rep.Phases, plain, spanned)
	if plain.rate() > 0 {
		m["bench.trace_overhead_ratio"] = spanned.rate() / plain.rate()
	}
	lat := sortedCopy(append(plain.latMS, spanned.latMS...))
	rep.Samples["loaded_lat_ms"] = len(lat)
	p99 := "serve.lat_p99_ms"
	if w.Routed {
		p99 = "router.lat_p99_ms"
	}
	m[p99] = percentile(lat, 99)
	rep.noteIfUnsupported(p99, len(lat), 99)
	var st serve.Stats
	if err := getJSON(d.server+"/v1/stats", &st); err != nil {
		return err
	}
	m["serve.mean_batch_size"] = st.MeanBatchSize
	if w.Routed {
		var rs router.Stats
		if err := getJSON(d.base+"/v1/stats", &rs); err != nil {
			return err
		}
		m["router.retries"], m["router.hedges"], m["router.partials"] = float64(rs.Retries), float64(rs.Hedges), float64(rs.Partials)
		if err := snapshotProbes(d, tmp, m); err != nil {
			return err
		}
	}

	// Correctness: served answers against the in-process exact answer, and
	// a subsample against ScoreSlow + sort.
	check, err := checkServed(d, conns[0], sample, in.truth)
	if err != nil {
		return err
	}
	rep.Phases = append(rep.Phases, check.phase)
	m["core.topk_da_success"] = check.daSuccess()
	rep.Correct = noteCheck(rep, check)
	if err := oracleCheck(l, sample, check.served, cfg.Sizes.OracleSamples); err != nil {
		rep.Correct = false
		rep.Notes = append(rep.Notes, err.Error())
	}
	if cfg.TraceFile != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.TraceFile), 0o755); err != nil {
			return err
		}
		if err := rec.write(cfg.TraceFile); err != nil {
			return err
		}
	}
	return ingestProbes(d, l, conns[1], in.newUsers, m)
}

// print writes the human-readable report, the full result document and,
// as the last line, the summary object the benchmark contract asks for.
func (rep *report) print(out io.Writer) error {
	fmt.Fprintf(out, "workload %s seed %d window %ds trace %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(out, "environment nproc %d gomaxprocs %d %s %s commit %s\n", rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Platform, rep.Env.Commit)
	fmt.Fprintf(out, "world anon_users %d aux_users %d generated_users %d generated_posts %d (paper: %d users, %d posts)\n",
		rep.World.AnonUsers, rep.World.AuxUsers, rep.World.Users, rep.World.Posts, rep.World.PaperUsers, rep.World.PaperPosts)
	attempted, failed := 0, 0
	for _, p := range rep.Phases {
		fmt.Fprintf(out, "phase %s sent %d succeeded %d failed %d seconds %.3f\n", p.Name, p.Sent, p.Succeeded, p.Failed, p.Seconds)
		attempted += p.Sent
		failed += p.Failed
	}
	for _, name := range sortedKeys(rep.Samples) {
		fmt.Fprintf(out, "samples %s %d\n", name, rep.Samples[name])
	}
	for _, note := range rep.Notes {
		fmt.Fprintf(out, "note %s\n", note)
	}
	for _, layer := range sortedKeys(rep.LayerSelfUS) {
		fmt.Fprintf(out, "layer_self_us %s %.1f\n", layer, rep.LayerSelfUS[layer])
	}
	specs := endToEnd
	if rep.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(out, "%s %s %s\n", s.Name, strconv.FormatFloat(rep.Metrics[s.Name].Value, 'g', -1, 64), s.Unit)
	}
	doc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", doc)
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, attempted, failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", last)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
