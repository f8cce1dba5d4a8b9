package main

import (
	"math"
	"sort"
)

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
// It is NaN for no samples.
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

// quartiles returns the three cut points dividing the samples into four
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), which is how the benchmark's spread is
// judged. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// j is clamped into [1, n-1] before delta is taken, exactly as
		// Python does, so two samples extrapolate the outer quartiles.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer is noise, so it is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// the samples, and whether at least minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p <= 0 || p >= 100 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// tailPercentile reports the highest of the standard tail percentiles
// (99.9, 99, 90, 50) that has at least minBeyond samples beyond it,
// with the percentile it chose; ok is false below 11 samples.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}

// blockMeans groups consecutive samples into blocks of k, the last
// block absorbing any remainder, and returns each block's mean. A median
// over block means is steady where single samples are bimodal, as when
// a single-threaded phase lands on either of two unequally contended
// host cores from one pass to the next.
func blockMeans(xs []float64, k int) []float64 {
	var out []float64
	for lo := 0; lo < len(xs); {
		hi := lo + k
		if len(xs)-hi < k {
			hi = len(xs)
		}
		out = append(out, mean(xs[lo:hi]))
		lo = hi
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
