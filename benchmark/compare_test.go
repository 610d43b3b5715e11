package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	qps := metric{Name: "qps", Unit: "1/s", Higher: true, Bound: 0.10}
	lat := metric{Name: "lat_p50_ms", Unit: "ms", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99, v, v * 1.005} }
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		same bool
		want string
	}{
		{"within bound", qps, steady(100), steady(95), false, "ok"},
		{"throughput fell", qps, steady(100), steady(85), false, "worse"},
		{"throughput rose", qps, steady(100), steady(130), false, "ok"},
		{"latency rose", lat, steady(10), steady(12), false, "worse"},
		{"latency fell", lat, steady(10), steady(7), false, "ok"},
		{"same commit, apart", qps, steady(100), steady(85), true, "unresolved"},
		{"same commit, apart upwards", qps, steady(100), steady(130), true, "unresolved"},
		{"same commit, together", qps, steady(100), steady(97), true, "ok"},
		{"spread wider than bound", qps, []float64{100, 80, 120, 90, 110}, steady(100), false, "unresolved"},
	} {
		if _, got := verdict(c.m, c.a, c.b, c.same); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := worseBy(qps, 100, 90); got != 0.1 {
		t.Errorf("worseBy(qps 100 -> 90) = %g, want 0.1", got)
	}
	if got := worseBy(lat, 10, 9); got != -0.1 {
		t.Errorf("worseBy(latency 10 -> 9) = %g, want -0.1", got)
	}
}

// compareFiles reads result documents out of captured run output.
func TestCompareFilesReadsCapturedOutput(t *testing.T) {
	capture := func(qps float64) string {
		rep := report{Benchmark: benchmarkID, Workload: "sparse_walk", Correct: true, Metrics: map[string]value{}}
		rep.Env.Commit = "abc"
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = value{Value: 1, Unit: m.Unit}
		}
		rep.Metrics["qps"] = value{Value: qps, Unit: "1/s"}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	dir := t.TempDir()
	write := func(name string, qps ...float64) string {
		var text string
		for _, q := range qps {
			text += capture(q)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.txt", 100, 101, 99)
	b := write("b.txt", 100.5, 99.5, 101)
	c := write("c.txt", 60, 61, 59)

	var out bytes.Buffer
	ok, err := compareFiles(&out, a, b)
	if err != nil || !ok {
		t.Errorf("two agreeing sets: ok %v err %v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, a, c)
	if err != nil || ok || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("two same-commit sets 40%% apart: ok %v err %v\n%s", ok, err, out.String())
	}
	if _, err := compareFiles(&out, a, filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("a missing file compared fine")
	}
}
