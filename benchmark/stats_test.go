package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

// A percentile is reported as supported only with at least ten samples
// beyond it: p95 needs 200 samples, p99 needs 1000.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{200, 95, true}, {199, 95, false},
		{1000, 99, true}, {999, 99, false},
		{100, 90, true}, {99, 90, false},
		{20, 50, true}, {19, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// is what the benchmark's driver computes.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 10], n=4)
	// == [10.0, 11.25, 12.625]
	xs := []float64{10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 10}
	if got, want := spread(xs), (12.625-10.0)/11.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
}
