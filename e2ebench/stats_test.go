package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2, 4, 4, 5, 7, 9, 10}, [3]float64{4, 5, 9}},
		{[]float64{1.5, 2.5, 2.5, 3}, [3]float64{1.75, 2.5, 2.875}},
	} {
		q1, q2, q3, ok := quartiles(tc.in)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", tc.in)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should not be ok")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must not be ok")
	}
	if v, ok := percentile(xs[:100], 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it and must not be ok")
	}
}

func TestTailPercentilePicksHighestValid(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, v, ok := tailPercentile(xs)
	if !ok || p != 90 || v != 450 {
		t.Errorf("tailPercentile(1..500) = p%v %v %v; want p90 450 true", p, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:10]); ok {
		t.Error("ten samples support no percentile with ten beyond")
	}
}

func TestBlockMeans(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		k    int
		want []float64
	}{
		{nil, 5, nil},
		{[]float64{1, 2, 3}, 5, []float64{2}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5, []float64{3, 8}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, 5, []float64{3, 9.5}},
	} {
		got := blockMeans(tc.in, tc.k)
		if len(got) != len(tc.want) {
			t.Errorf("blockMeans(%v, %d) = %v, want %v", tc.in, tc.k, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("blockMeans(%v, %d) = %v, want %v", tc.in, tc.k, got, tc.want)
				break
			}
		}
	}
}
