package dehealth

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchEntry is one entry of a BENCH_<workload>.json file, as
// scripts/bench_pairs.sh appends it.
type benchEntry struct {
	Workload     string                 `json:"workload"`
	Date         string                 `json:"date"`
	ParentCommit string                 `json:"parent_commit"`
	ParentTree   string                 `json:"parent_tree"`
	ChangeCommit string                 `json:"change_commit"`
	ChangeTree   string                 `json:"change_tree"`
	ChangeDirty  bool                   `json:"change_dirty"`
	Pairs        int                    `json:"pairs"`
	Seconds      int                    `json:"seconds"`
	Nproc        int                    `json:"nproc"`
	GoVersion    string                 `json:"go_version"`
	RunsFailed   map[string]int         `json:"runs_failed"`
	Metrics      map[string]benchMetric `json:"metrics"`
	PairRuns     []benchPair            `json:"pair_runs"`
}

// benchMetric is one end-to-end metric of an entry: the compare tool's
// medians (inside both sides' spread), relative difference and verdict,
// and the pairs the change won.
type benchMetric struct {
	Unit              string      `json:"unit"`
	Better            string      `json:"better"`
	Bound             float64     `json:"bound"`
	Parent            benchSpread `json:"parent"`
	Change            benchSpread `json:"change"`
	WorseBy           float64     `json:"worse_by"`
	Verdict           string      `json:"verdict"`
	ChangeBetterPairs int         `json:"change_better_pairs"`
}

// benchSpread is one side's five-number summary of a metric.
type benchSpread struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// benchPair is one pair of runs on the same seed.
type benchPair struct {
	Seed   int                `json:"seed"`
	First  string             `json:"first"`
	Parent map[string]float64 `json:"parent"`
	Change map[string]float64 `json:"change"`
}

// TestBenchPairsSchema pins the schema of every committed
// BENCH_<workload>.json: no unknown field; commits and trees as full
// hashes, with the change's tree differing from the parent's; runs as
// long as BENCHMARK.json's run_seconds; every end-to-end metric of
// BENCHMARK.json with its direction and bound; medians inside their
// quartiles; and pairs alternating which side ran first.
func TestBenchPairsSchema(t *testing.T) {
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		EndToEnd   []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json: scripts/bench_pairs.sh entries are committed with each perf change")
	}
	hash := regexp.MustCompile(`^[0-9a-f]{40}$`)
	// The compare tool prints medians to 6 significant digits.
	within := func(lo, v, hi float64) bool {
		slack := 1e-5 * math.Abs(v)
		return lo-slack <= v && v <= hi+slack
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var entries []benchEntry
		if err := dec.Decode(&entries); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s: no entries", file)
		}
		workload := strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json")
		for _, e := range entries {
			where := file + " entry " + e.Date
			for _, h := range []string{e.ParentCommit, e.ParentTree, e.ChangeCommit, e.ChangeTree} {
				if !hash.MatchString(h) {
					t.Errorf("%s: %q is not a full hash", where, h)
				}
			}
			switch {
			case e.Workload != workload:
				t.Errorf("%s: workload %q in the file of %q", where, e.Workload, workload)
			case e.ParentTree == e.ChangeTree:
				t.Errorf("%s: parent and change ran the same tree %s", where, e.ChangeTree)
			case !e.ChangeDirty && e.ParentCommit == e.ChangeCommit:
				t.Errorf("%s: a clean change at its own parent commit %s", where, e.ChangeCommit)
			case e.Seconds != spec.RunSeconds:
				t.Errorf("%s: runs of %d s, BENCHMARK.json runs %d s", where, e.Seconds, spec.RunSeconds)
			case e.Date == "" || e.Pairs < 3 || e.Nproc < 1 || !strings.HasPrefix(e.GoVersion, "go"):
				t.Errorf("%s: date %q, pairs %d, nproc %d, go %q", where, e.Date, e.Pairs, e.Nproc, e.GoVersion)
			case len(e.RunsFailed) != 2 || len(e.PairRuns) < 3 || len(e.PairRuns) > e.Pairs:
				t.Errorf("%s: runs_failed %v, %d pair runs of %d pairs", where, e.RunsFailed, len(e.PairRuns), e.Pairs)
			case len(e.Metrics) != len(spec.EndToEnd):
				t.Errorf("%s: %d metrics, BENCHMARK.json has %d", where, len(e.Metrics), len(spec.EndToEnd))
			}
			for _, p := range e.PairRuns {
				if want := map[bool]string{true: "parent", false: "change"}[p.Seed%2 == 1]; p.First != want {
					t.Errorf("%s: pair %d ran %q first, want %q (sides alternate)", where, p.Seed, p.First, want)
				}
			}
			for _, s := range spec.EndToEnd {
				m, ok := e.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s: no %s", where, s.Name)
					continue
				case m.Unit == "" || m.Better != s.Better || m.Bound != s.Bound:
					t.Errorf("%s: %s unit %q, better %q, bound %v; BENCHMARK.json says %q, %v", where, s.Name, m.Unit, m.Better, m.Bound, s.Better, s.Bound)
				case m.Verdict != "ok" && m.Verdict != "worse" && m.Verdict != "unresolved":
					t.Errorf("%s: %s verdict %q", where, s.Name, m.Verdict)
				case m.ChangeBetterPairs < 0 || m.ChangeBetterPairs > len(e.PairRuns):
					t.Errorf("%s: %s better in %d of %d pairs", where, s.Name, m.ChangeBetterPairs, len(e.PairRuns))
				}
				for side, r := range map[string]benchSpread{"parent": m.Parent, "change": m.Change} {
					if !(r.Min <= r.Q1 && r.Q3 <= r.Max && within(r.Q1, r.Median, r.Q3)) {
						t.Errorf("%s: %s %s spread %+v out of order", where, s.Name, side, r)
					}
				}
				for _, p := range e.PairRuns {
					if _, ok := p.Parent[s.Name]; !ok {
						t.Errorf("%s: pair %d has no parent %s", where, p.Seed, s.Name)
					}
					if _, ok := p.Change[s.Name]; !ok {
						t.Errorf("%s: pair %d has no change %s", where, p.Seed, s.Name)
					}
				}
			}
		}
	}
}

// TestBenchPairsTreeID runs scripts/bench_pairs.sh's tree_id, lifted out of
// the script with the script's shell options, in a scratch repository on
// a commit whose README.md differs from both the index and HEAD: it must
// print that commit's tree without the documents and BENCH_*.json, and a
// tree_id that fails must fail the command substitution's caller.
func TestBenchPairsTreeID(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	script, err := os.ReadFile("scripts/bench_pairs.sh")
	if err != nil {
		t.Fatal(err)
	}
	fn := regexp.MustCompile(`(?ms)^tree_id\(\) \{$.*?^\}$`).Find(script)
	opts := regexp.MustCompile(`(?m)^(set|shopt) .*$`).FindAll(script, -1)
	if fn == nil || len(opts) == 0 {
		t.Fatalf("scripts/bench_pairs.sh: tree_id or its shell options not found (%d option lines)", len(opts))
	}
	dir, scratch := t.TempDir(), t.TempDir()
	run := func(args ...string) (string, error) {
		cmd := exec.Command(args[0], args[1:]...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "TMPDIR="+scratch, "GIT_CONFIG_GLOBAL=/dev/null", "GIT_CONFIG_NOSYSTEM=1",
			"GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t", "GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@t")
		out, err := cmd.CombinedOutput()
		return strings.TrimSpace(string(out)), err
	}
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	must := func(args ...string) string {
		out, err := run(args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return out
	}
	must("git", "init", "-q")
	write("a.go", "package a\n")
	must("git", "add", "-A")
	must("git", "commit", "-q", "-m", "code")
	want := must("git", "rev-parse", "HEAD^{tree}")
	write("README.md", "one\n")
	write("BENCH_x.json", "[]\n")
	must("git", "add", "-A")
	must("git", "commit", "-q", "-m", "documents")
	rev := must("git", "rev-parse", "HEAD")
	write("README.md", "two\n")
	must("git", "commit", "-q", "-am", "edit")
	write("README.md", "three\n") // differs from the index and HEAD

	shell := func(arg string) (string, error) {
		return run("bash", "-c", string(bytes.Join(opts, []byte("\n")))+"\ntmp=$(mktemp -d)\n"+string(fn)+
			"\nid=$(tree_id "+arg+")\nrm -rf \"$tmp\"\necho \"$id\"")
	}
	if got, err := shell(rev); err != nil || got != want {
		t.Fatalf("tree_id %s = %q (%v), want %s", rev, got, err, want)
	}
	if got, err := shell("no-such-rev"); err == nil {
		t.Fatalf("tree_id of a missing revision succeeded with %q", got)
	}
}
