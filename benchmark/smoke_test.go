package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks every world to a few hundred users so the whole
// harness — generation, deployment, load, check, mixed phase, traced run —
// runs in seconds under `go test ./...`.
var smokeSizes = sizes{
	DenseAccounts:   300,
	SparseAux:       3000,
	SparseAnon:      200,
	SparseCommunity: 40,
	SparseDim:       2048,
	IngestAccounts:  60,
	Samples:         40,
	OracleSamples:   10,
}

func smokeWindow() time.Duration {
	if testing.Short() {
		return 300 * time.Millisecond
	}
	return time.Second
}

// lastLine parses the summary object a run prints last.
func lastLine(t *testing.T, rep *report) (correct bool, attempted, failed int, metrics map[string]value) {
	t.Helper()
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(doc) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", doc)
	}
	for key, into := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(doc[key], into); err != nil {
			t.Fatalf("last line key %s: %v", key, err)
		}
	}
	return correct, attempted, failed, metrics
}

// Every workload runs end to end at smoke size: no request fails, every
// served answer is bit-identical to the in-process exact one, and every
// end-to-end metric is reported and non-zero.
func TestSmokeEndToEnd(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		rep, err := run(runConfig{Workload: w, Sizes: smokeSizes, Seed: 11, Window: smokeWindow()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		correct, attempted, failed, metrics := lastLine(t, rep)
		if !correct || failed != 0 || attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d requests failed; notes %v; phases %+v", w.Name, correct, failed, attempted, rep.Notes, rep.Phases)
		}
		if len(metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics reported, want %d", w.Name, len(metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (reported %v)", w.Name, m.Name, v, ok)
			}
		}
		if got := metrics["recall_at_10"].Value; got != 1 {
			t.Errorf("%s: recall_at_10 = %g, want 1", w.Name, got)
		}
		if got := metrics["success_ratio"].Value; got != 1 {
			t.Errorf("%s: success_ratio = %g, want 1", w.Name, got)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(os.TempDir(), "dehealth-bench-*")); len(left) != 0 {
		t.Errorf("temporary files left behind: %v", left)
	}
}

// Every workload's traced run emits all per-layer metrics and a span file
// whose layer-by-layer measurements hang together.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced runs rebuild every world a second time")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		spans := filepath.Join(t.TempDir(), "trace.json")
		rep, err := run(runConfig{Workload: w, Sizes: smokeSizes, Seed: 12, Window: smokeWindow(), Trace: true, TraceFile: spans})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		correct, _, failed, metrics := lastLine(t, rep)
		if !correct || failed != 0 {
			t.Errorf("%s: correct %v, %d requests failed; notes %v", w.Name, correct, failed, rep.Notes)
		}
		if len(metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics reported, want %d", w.Name, len(metrics), len(perLayer))
		}
		for _, name := range []string{"similarity.scorer_build_s", "shard.topk_us", "shard.topk_approx_us", "shard.topk_pruned_us", "serve.http_query_us", "serve.self_us", "bench.loopback_rtt_us", "bench.trace_overhead_ratio"} {
			if metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %g, want it measured", w.Name, name, metrics[name].Value)
			}
		}
		if got := metrics["router.self_us"].Value; (got > 0) != w.Routed {
			t.Errorf("%s: router.self_us = %g", w.Name, got)
		}
		if got := metrics["features.build_s"].Value; (got > 0) == w.Sparse {
			t.Errorf("%s: features.build_s = %g", w.Name, got)
		}

		blob, err := os.ReadFile(spans)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("%s: span file: %v", w.Name, err)
		}
		roots, byID := 0, map[int]span{}
		for _, s := range doc.Spans {
			byID[s.ID] = s
		}
		for _, s := range doc.Spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %+v ends before it starts", w.Name, s)
			}
			if s.Parent == 0 {
				roots++
			} else if p, ok := byID[s.Parent]; !ok || p.Query != s.Query {
				t.Fatalf("%s: span %+v cites parent %+v", w.Name, s, p)
			}
		}
		if roots == 0 || len(rep.LayerSelfUS) == 0 {
			t.Errorf("%s: %d root spans, layer shares %v", w.Name, roots, rep.LayerSelfUS)
		}
	}
}
