package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile; fewer and the "percentile" is one or two outliers.
const minTail = 10

// median returns the middle of xs (mean of the two middles for an even
// count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the tail rule: report the highest percentile,
// at most the 99th, that has at least minTail samples strictly beyond
// it in nearest-rank order. It returns the percentile, the sample value
// at that rank, and false when fewer than minTail+1 samples exist.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n < minTail+1 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	// Nearest rank of the 99th percentile: ceil(0.99 n), 1-based.
	k := (99*n+99)/100 - 1
	pct = 99
	if k > n-1-minTail {
		k = n - 1 - minTail
		pct = 100 * float64(k+1) / float64(n)
	}
	return pct, s[k], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
