package main

import (
	"math"
	"sort"
)

// tailMinBeyond is the reporting rule for timings and lags: a
// percentile is reported only when at least this many samples lie
// beyond it, so a tail figure never rests on one or two outliers.
const tailMinBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of an
// ascending sample (q in [0, 1]). An empty sample yields NaN.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// percentile reports the p-th percentile (p in (0, 100)) of xs and
// whether it qualifies: at least tailMinBeyond samples must lie beyond
// it, i.e. n·(1 − p/100) ≥ tailMinBeyond.
func percentile(xs []float64, p float64) (float64, bool) {
	// The tolerance absorbs float error in 100 − p (99.9 is inexact).
	ok := float64(len(xs))*(100-p)/100 >= tailMinBeyond-1e-6
	return quantile(sorted(xs), p/100), ok
}

// tailLadder is the set of percentiles highestTail chooses from.
var tailLadder = []float64{99.9, 99, 90, 50}

// highestTail returns the highest percentile of tailLadder that has at
// least tailMinBeyond samples beyond it, with its value. ok is false
// when even the median does not qualify (fewer than 20 samples).
func highestTail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}
