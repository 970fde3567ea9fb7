package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p (in percent)
// among n sorted samples.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// minSamples is the smallest sample count at which percentile p keeps at
// least minBeyond samples above it: 20 for p50, 40 for p75, 100 for p90,
// 1000 for p99.
func minSamples(p int) int {
	n := 1
	for n-rank(p, n) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank percentile p of xs, and whether xs
// holds enough samples for it (see minSamples). xs is not modified.
func percentile(xs []float64, p int) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	return s[rank(p, len(s))-1], len(s)-rank(p, len(s)) >= minBeyond
}

// median is the middle of xs (mean of the two middle values for even
// counts); it needs no minimum sample count.
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// spearman is the rank correlation of two equal-length series (average
// ranks for ties).
func spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return math.NaN()
	}
	ra, rb := ranks(a), ranks(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var num, da, db float64
	for i := range ra {
		x, y := ra[i]-ma, rb[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(da*db)
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// histQuantile returns quantile q of a cumulative Prometheus histogram
// (bounds[i] is the le of counts[i]; counts has one extra +Inf entry) at
// bucket resolution: the upper bound of the first bucket reaching q. An
// answer in the +Inf bucket reports the largest finite bound.
func histQuantile(bounds []float64, counts []float64, q float64) float64 {
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	target := q * counts[len(counts)-1]
	for i, c := range counts {
		if c >= target {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return bounds[len(bounds)-1]
}
