package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule. xs is sorted in place; an empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond returns how many of n samples lie strictly beyond the p-th
// percentile under the nearest-rank rule.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples; the epsilon keeps p·n/100 from rounding up past an exact rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile returns the highest of the candidate percentiles that has
// at least minTail of n samples beyond it, and false when none has.
func tailPercentile(n int, candidates ...float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if beyond(n, p) >= minTail && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// inUnits converts durations to multiples of unit (time.Millisecond: ms).
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
