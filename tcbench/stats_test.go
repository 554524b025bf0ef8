package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestTailPercentile pins the tail rule: the highest percentile, at most
// the 99th, with at least minTail samples strictly beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{11, 100.0 / 11},
		{20, 50},
		{280, 100 * 270.0 / 280},
		{1000, 99},
		{1500, 99},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: the rule must sort
		}
		pct, v, ok := tailPercentile(xs)
		if !ok {
			t.Fatalf("n=%d: no tail percentile", tc.n)
		}
		if math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, pct, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Errorf("n=%d: %d samples beyond p%.2f=%v, want >= %d", tc.n, beyond, pct, v, minTail)
		}
		if pct < 99 && beyond != minTail {
			t.Errorf("n=%d: below p99 exactly %d samples must lie beyond, got %d", tc.n, minTail, beyond)
		}
	}
	if _, _, ok := tailPercentile(make([]float64, minTail)); ok {
		t.Errorf("%d samples cannot have %d beyond any percentile", minTail, minTail)
	}
}
