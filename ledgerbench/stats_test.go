package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestQuantileInterpolates(t *testing.T) {
	xs := sorted([]float64{4, 1, 3, 2})
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN, not a number that looks measured")
	}
}

// TestPercentileNeedsTenBeyond pins the tail rule: a percentile counts
// only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false}, {100, 90, true},
		{999, 99, false}, {1000, 99, true},
		{19, 50, false}, {20, 50, true},
	} {
		if _, ok := percentile(seq(c.n), c.p); ok != c.want {
			t.Errorf("n=%d p%g qualifies=%v, want %v", c.n, c.p, ok, c.want)
		}
	}
}

func TestHighestTailPicksHighestQualifying(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 50}, {99, 50}, {100, 90}, {1000, 99}, {10000, 99.9}} {
		p, v, ok := highestTail(seq(c.n))
		if !ok || p != c.want {
			t.Errorf("n=%d: highest tail p%g ok=%v, want p%g", c.n, p, ok, c.want)
		}
		if want := quantile(sorted(seq(c.n)), c.want/100); v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
	}
	if _, _, ok := highestTail(seq(19)); ok {
		t.Error("19 samples cannot support even a median with ten beyond")
	}
}
