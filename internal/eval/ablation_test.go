package eval

import (
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", row[col], err)
	}
	return v
}

func TestAblationWeights(t *testing.T) {
	c := GenerateCorpora(smallScale())
	tb := AblationWeights(c, 20)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The attribute-only configuration must beat degree-only and
	// distance-only — the finding behind the paper's c3 = 0.9 default.
	degreeOnly := cell(t, tb.Rows[0], 3)
	distanceOnly := cell(t, tb.Rows[1], 3)
	attrOnly := cell(t, tb.Rows[2], 3)
	if attrOnly < degreeOnly || attrOnly < distanceOnly {
		t.Errorf("attribute-only (%v) should dominate degree-only (%v) and distance-only (%v)",
			attrOnly, degreeOnly, distanceOnly)
	}
	for _, row := range tb.Rows {
		if v := cell(t, row, 3); v < 0 || v > 1 {
			t.Errorf("success %v out of range", v)
		}
	}
}

func TestAblationSelection(t *testing.T) {
	tb := AblationSelection(7)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prevD, prevM := -1.0, -1.0
	for _, row := range tb.Rows {
		d := cell(t, row, 1)
		m := cell(t, row, 2)
		if d < prevD-1e-9 || m < prevM-1e-9 {
			t.Error("success must be monotone in K for both strategies")
		}
		prevD, prevM = d, m
	}
}

func TestAblationFilter(t *testing.T) {
	tb := AblationFilter(7)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	noFilter := cell(t, tb.Rows[0], 1)
	withFilter := cell(t, tb.Rows[1], 1)
	if withFilter > noFilter {
		t.Errorf("filtering must not grow candidate sets: %v -> %v", noFilter, withFilter)
	}
}

func TestDefenseExperiment(t *testing.T) {
	tb := DefenseExperiment(25, 12, 3)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	off := cell(t, tb.Rows[0], 1)
	aggressive := cell(t, tb.Rows[3], 1)
	if aggressive > off+0.05 {
		t.Errorf("aggressive scrubbing should not improve the attack: %v -> %v", off, aggressive)
	}
	if !strings.Contains(tb.Rows[3][0], "aggressive") {
		t.Error("row labels out of order")
	}
}
