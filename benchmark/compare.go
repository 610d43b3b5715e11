package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// loadReports reads every end-to-end result document out of a file of
// captured run output (other lines are skipped), grouped by workload.
func loadReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"benchmark":"`+benchmarkID+`"`) {
			continue
		}
		var rep report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], rep)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result documents", path)
	}
	return out, nil
}

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's own direction: positive is worse, negative better.
func worseBy(m metric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one workload x metric pair of two result sets. A
// difference the benchmark cannot stand behind is "unresolved": either
// set's own run-to-run spread exceeds the bound, or both sets come from
// the same commit and still differ by more than it. Otherwise b is "worse"
// when it is worse than a by more than the bound, and "ok" if not.
func verdict(m metric, a, b []float64, sameCommit bool) (diff float64, v string) {
	diff = worseBy(m, median(a), median(b))
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		v = "unresolved"
	case sameCommit && math.Abs(diff) > m.Bound:
		v = "unresolved"
	case diff > m.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return diff, v
}

// compareFiles prints, per workload x end-to-end metric, the medians of
// the two result sets, their relative difference and the metric's bound,
// and reports whether every pair came out "ok".
func compareFiles(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(out, "%-13s %-14s %5s %12s %12s %9s %7s  %s\n", "workload", "metric", "runs", "a", "b", "worse_by", "bound", "verdict")
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		same := ra[0].Env.Commit == rb[0].Env.Commit
		for _, m := range endToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			diff, v := verdict(m, va, vb, same)
			if v != "ok" {
				allOK = false
			}
			fmt.Fprintf(out, "%-13s %-14s %2d/%-2d %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, len(va), len(vb), median(va), median(vb), 100*diff, 100*m.Bound, v)
		}
	}
	return allOK, nil
}

func values(reps []report, name string) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.Metrics[name].Value
	}
	return out
}
