// Package metrics provides the data-fidelity and model-quality measures
// used across the evaluation: MSE, PSNR, maximum pointwise error
// and classification accuracy.
package metrics

import (
	"math"

	"repro/internal/tensor"
)

// MSE returns the mean squared error between a and b.
func MSE(a, b *tensor.Tensor) float64 {
	if !a.SameShape(b) {
		panic("metrics: MSE shape mismatch")
	}
	var s float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		d := float64(ad[i]) - float64(bd[i])
		s += d * d
	}
	return s / float64(len(ad))
}

// MaxError returns the largest absolute pointwise error.
func MaxError(a, b *tensor.Tensor) float64 { return a.MaxAbsDiff(b) }

// PSNR returns the peak signal-to-noise ratio in dB, using the dynamic
// range of the reference a. Identical tensors yield +Inf.
func PSNR(a, b *tensor.Tensor) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	peak := float64(a.Max() - a.Min())
	if peak == 0 {
		peak = 1
	}
	return 20*math.Log10(peak) - 10*math.Log10(mse)
}

// Accuracy returns the fraction of rows of logits (shape [BD, classes])
// whose argmax equals the integer label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	bd := logits.Dim(0)
	if bd != len(labels) {
		panic("metrics: Accuracy batch/label length mismatch")
	}
	correct := 0
	for i := 0; i < bd; i++ {
		if logits.Index(i).Argmax() == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(bd)
}

// PercentDiff returns 100·(v−base)/|base|, the paper's Fig. 8/9/16
// y-axis (percent difference from the no-compression baseline).
func PercentDiff(v, base float64) float64 {
	if base == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (v - base) / math.Abs(base)
}
