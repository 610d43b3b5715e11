package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as supported: below that, the tail value is a handful of
// outliers, not a distribution.
const minBeyond = 10

// rankOf is the 1-based nearest rank of the p-th percentile among n
// sorted samples, clamped to [1, n]. The epsilon keeps a product like
// 99.9% of 10000 from rounding up past its exact value.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted ascending samples, and 0 for none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// supported reports whether n samples leave at least minBeyond of them
// strictly beyond the nearest-rank p-th percentile.
func supported(n int, p float64) bool {
	return n > 0 && n-rankOf(n, p) >= minBeyond
}

// highestSupported picks, from the conventional tail percentiles, the
// highest one n samples support, falling back to the median.
func highestSupported(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if supported(n, p) {
			best = p
		}
	}
	return best
}

// sortedCopy returns the samples in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartile as a share
// of the median — the run-to-run spread the compare tool holds against a
// metric's bound. Quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method), which is what the benchmark's driver computes.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
