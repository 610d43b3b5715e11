package eval

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dehealth/internal/core"
)

// smallScale is a fast evaluation scale for tests.
func smallScale() Scale {
	return Scale{WebMDUsers: 300, HBUsers: 500, OverlapFrac: 0.2, Seed: 1902}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "t", Header: []string{"a", "long-header"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	out := tb.String()
	if !strings.Contains(out, "long-header") || !strings.Contains(out, "333") {
		t.Errorf("render missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
}

func TestRenderSeries(t *testing.T) {
	s := []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{0.5, 1}},
		{Name: "b", X: []float64{1, 2}, Y: []float64{0.25, 0.75}},
	}
	out := RenderSeries("title", s)
	for _, want := range []string{"title", "a", "b", "0.5000", "0.7500"} {
		if !strings.Contains(out, want) {
			t.Errorf("series render missing %q:\n%s", want, out)
		}
	}
	if got := RenderSeries("empty", nil); !strings.Contains(got, "no data") {
		t.Error("empty series render")
	}
}

func TestTopKSuccessCDF(t *testing.T) {
	tk := &core.TopKResult{TrueRank: []int{1, 3, 10, 0}}
	mapping := map[int]int{0: 5, 1: 6, 2: 7} // user 3 has no mapping
	got := TopKSuccessCDF(tk, mapping, []int{1, 3, 10})
	want := []float64{1.0 / 3, 2.0 / 3, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("cdf[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := TopKSuccessCDF(tk, nil, []int{1}); out[0] != 0 {
		t.Error("empty mapping must give zeros")
	}
}

func TestAccuracyFP(t *testing.T) {
	res := &core.DAResult{Mapping: []int{5, 9, -1, 2}}
	mapping := map[int]int{0: 5, 1: 6, 2: 7}
	// user 0 correct; user 1 wrong (FP); user 2 rejected (no FP);
	// user 3 has no truth and was mapped (FP).
	acc, fp := AccuracyFP(res, mapping)
	if math.Abs(acc-1.0/3) > 1e-12 {
		t.Errorf("accuracy = %v, want 1/3", acc)
	}
	if math.Abs(fp-0.5) > 1e-12 {
		t.Errorf("fp = %v, want 0.5", fp)
	}
}

func TestGenerateCorporaSmall(t *testing.T) {
	c := GenerateCorpora(smallScale())
	if c.WebMD.NumUsers() != 300 || c.HB.NumUsers() != 500 {
		t.Fatalf("sizes %d/%d", c.WebMD.NumUsers(), c.HB.NumUsers())
	}
	if err := c.WebMD.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.HB.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Directory.Profiles) == 0 {
		t.Error("no directory profiles")
	}
	// Cross-forum overlap exists (ground truth).
	hbIdent := map[int]bool{}
	for _, u := range c.HB.Users {
		hbIdent[u.TrueIdentity] = true
	}
	shared := 0
	for _, u := range c.WebMD.Users {
		if hbIdent[u.TrueIdentity] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no shared persons between forums")
	}
}

func TestFig1Fig2Headlines(t *testing.T) {
	c := GenerateCorpora(smallScale())
	s1, t1 := Fig1(c)
	if len(s1) != 2 {
		t.Fatalf("fig1 series = %d", len(s1))
	}
	// CDFs are monotone nondecreasing and end at 1.
	for _, s := range s1 {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-12 {
				t.Errorf("fig1 %s CDF not monotone", s.Name)
			}
		}
		if s.Y[len(s.Y)-1] < 0.95 {
			t.Errorf("fig1 %s CDF tail = %v", s.Name, s.Y[len(s.Y)-1])
		}
	}
	if len(t1.Rows) != 2 {
		t.Error("fig1 table rows")
	}

	s2, t2 := Fig2(c)
	for _, s := range s2 {
		sum := 0.0
		for _, y := range s.Y {
			sum += y
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("fig2 %s histogram sums to %v", s.Name, sum)
		}
	}
	if len(t2.Rows) != 2 {
		t.Error("fig2 table rows")
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 13 {
		t.Errorf("table1 rows = %d, want 13 categories", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"function-words", "337", "misspelled-words", "248"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestFig7Fig8(t *testing.T) {
	c := GenerateCorpora(smallScale())
	s, tb := Fig7(c)
	if len(s) != 2 || len(tb.Rows) != 2 {
		t.Fatal("fig7 shape")
	}
	for _, series := range s {
		last := series.Y[len(series.Y)-1]
		if last < 0.99 {
			t.Errorf("fig7 %s CDF tail %v", series.Name, last)
		}
	}
	t8 := Fig8(c)
	if len(t8.Rows) != 4 {
		t.Errorf("fig8 rows = %d, want 4 thresholds", len(t8.Rows))
	}
}

func TestFig3SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fig3 is slow")
	}
	c := GenerateCorpora(Scale{WebMDUsers: 150, HBUsers: 150, OverlapFrac: 0.2, Seed: 5})
	series := Fig3(c, []int{1, 10, 50, 150})
	if len(series) != 6 {
		t.Fatalf("fig3 series = %d, want 6", len(series))
	}
	for _, s := range series {
		// Monotone in K and bounded.
		for i := range s.Y {
			if s.Y[i] < 0 || s.Y[i] > 1 {
				t.Fatalf("%s: out of range %v", s.Name, s.Y[i])
			}
			if i > 0 && s.Y[i] < s.Y[i-1]-1e-12 {
				t.Fatalf("%s: not monotone in K", s.Name)
			}
		}
		// With K = |V2| success must be total.
		if s.Y[len(s.Y)-1] < 0.999 {
			t.Errorf("%s: success at K=n2 is %v, want 1", s.Name, s.Y[len(s.Y)-1])
		}
	}
}

func TestRefinedCorpus(t *testing.T) {
	d, u := RefinedCorpus(20, 6, 3)
	if d.NumUsers() != 20 || d.NumPosts() != 120 {
		t.Errorf("refined corpus %d users / %d posts", d.NumUsers(), d.NumPosts())
	}
	if u == nil {
		t.Error("universe missing")
	}
}

func TestTheoryExperimentSound(t *testing.T) {
	tb := TheoryExperiment(2000)
	if len(tb.Rows) == 0 {
		t.Fatal("empty theory table")
	}
	// Estimates (even columns after bounds) must dominate bounds.
	for _, row := range tb.Rows {
		check := func(boundCol, estCol int) {
			var b, e float64
			if _, err := fmtSscan(row[boundCol], &b); err != nil {
				t.Fatalf("bad bound cell %q", row[boundCol])
			}
			if _, err := fmtSscan(row[estCol], &e); err != nil {
				t.Fatalf("bad estimate cell %q", row[estCol])
			}
			if e < b-0.05 {
				t.Errorf("estimate %v below bound %v (cols %d/%d)", e, b, estCol, boundCol)
			}
		}
		check(4, 5)
		check(6, 7)
		check(8, 9)
		check(10, 11)
	}
}

// fmtSscan wraps fmt.Sscan for the theory-table checks.
func fmtSscan(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

func TestLinkageExperimentRuns(t *testing.T) {
	c := GenerateCorpora(smallScale())
	if c.BoneSmart == nil || c.BoneSmart.NumUsers() == 0 {
		t.Fatal("BoneSmart corpus missing")
	}
	tb := LinkageExperiment(c)
	if len(tb.Rows) < 10 {
		t.Errorf("linkage table has %d rows", len(tb.Rows))
	}
	out := tb.String()
	for _, want := range []string{"cross-forum", "usable avatars", "bonesmart"} {
		if !strings.Contains(out, want) {
			t.Errorf("linkage table missing %q", want)
		}
	}
}
