package nn

import (
	"fmt"
	"math"
)

// LRScheduler adjusts an optimizer's learning rate across epochs. The
// schedulers mutate the wrapped optimizer's LR field directly, matching
// how the paper's fixed-LR benchmarks would be extended for longer runs.
type LRScheduler interface {
	// LR returns the learning rate for the given 0-based epoch.
	LR(epoch int) float64
}

// StepDecay multiplies the base rate by Gamma every StepSize epochs.
type StepDecay struct {
	Base     float64
	Gamma    float64
	StepSize int
}

// LR returns Base·Gamma^⌊epoch/StepSize⌋.
func (s StepDecay) LR(epoch int) float64 {
	if s.StepSize <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Gamma, float64(epoch/s.StepSize))
}

// CosineDecay anneals from Base to Floor over Span epochs.
type CosineDecay struct {
	Base  float64
	Floor float64
	Span  int
}

// LR returns the half-cosine interpolation, clamped at Floor past Span.
func (c CosineDecay) LR(epoch int) float64 {
	if c.Span <= 0 || epoch >= c.Span {
		return c.Floor
	}
	t := float64(epoch) / float64(c.Span)
	return c.Floor + (c.Base-c.Floor)*(1+math.Cos(math.Pi*t))/2
}

// SetLR updates an optimizer's learning rate; it supports the
// optimizers of this package (including wrapped gradient compression).
func SetLR(opt Optimizer, lr float64) error {
	switch o := opt.(type) {
	case *SGD:
		o.LR = lr
	case *Adam:
		o.LR = lr
	case *GradCompressOptimizer:
		return SetLR(o.Inner, lr)
	default:
		return fmt.Errorf("nn: SetLR: unsupported optimizer %T", opt)
	}
	return nil
}
