package metrics

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestMSEAndMaxError(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	b := tensor.FromSlice([]float32{1, 2, 3, 6}, 4)
	if got := MSE(a, b); got != 1 {
		t.Fatalf("MSE = %g", got)
	}
	if MaxError(a, b) != 2 {
		t.Fatalf("MaxError = %g", MaxError(a, b))
	}
}

func TestMSEShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE(tensor.New(2), tensor.New(3))
}

func TestPSNR(t *testing.T) {
	a := tensor.FromSlice([]float32{0, 1}, 2) // peak = 1
	if !math.IsInf(PSNR(a, a.Clone()), 1) {
		t.Fatal("identical tensors must have infinite PSNR")
	}
	b := tensor.FromSlice([]float32{0.1, 0.9}, 2) // MSE = 0.01
	want := -10 * math.Log10(0.01)
	if got := PSNR(a, b); math.Abs(got-want) > 1e-5 {
		t.Fatalf("PSNR = %g, want %g", got, want)
	}
	// Halving the error raises PSNR.
	c := tensor.FromSlice([]float32{0.05, 0.95}, 2)
	if PSNR(a, c) <= PSNR(a, b) {
		t.Fatal("smaller error must yield higher PSNR")
	}
}

func TestPSNRConstantReference(t *testing.T) {
	// Zero dynamic range falls back to peak 1 instead of -Inf.
	a := tensor.Full(5, 4)
	b := tensor.Full(5.1, 4)
	if v := PSNR(a, b); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("PSNR = %g", v)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		0.9, 0.1, // → 0
		0.2, 0.8, // → 1
		0.6, 0.4, // → 0
	}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 1}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %g", got)
	}
}

func TestAccuracyLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Accuracy(tensor.New(2, 3), []int{0})
}

func TestPercentDiff(t *testing.T) {
	if got := PercentDiff(1.1, 1.0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("PercentDiff = %g", got)
	}
	// v − base = 1.9 against |base| = 1 → +190%.
	if got := PercentDiff(0.9, -1.0); math.Abs(got-190) > 1e-9 {
		t.Fatalf("PercentDiff vs negative base = %g", got)
	}
	if PercentDiff(0, 0) != 0 {
		t.Fatal("0 vs 0 must be 0")
	}
	if !math.IsInf(PercentDiff(1, 0), 1) {
		t.Fatal("nonzero vs zero base must be +Inf")
	}
}
