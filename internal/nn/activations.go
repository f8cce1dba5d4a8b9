package nn

import (
	"math"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0) and records the active mask.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	if cap(r.mask) < len(d) {
		r.mask = make([]bool, len(d))
	}
	r.mask = r.mask[:len(d)]
	for i, v := range d {
		if v > 0 {
			r.mask[i] = true
		} else {
			r.mask[i] = false
			d[i] = 0
		}
	}
	return out
}

// Backward zeroes gradients where the input was non-positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	d := out.Data()
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return out
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	out *tensor.Tensor
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward computes 1/(1+e^-x).
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Apply(func(v float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(v))))
	})
	s.out = out
	return out
}

// Backward multiplies by σ(x)(1−σ(x)).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	d := out.Data()
	o := s.out.Data()
	for i := range d {
		d[i] *= o[i] * (1 - o[i])
	}
	return out
}

// Params returns nil: Sigmoid has no parameters.
func (s *Sigmoid) Params() []*Param { return nil }

// Flatten reshapes [BD, ...] to [BD, rest].
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = x.Shape()
	return x.Reshape(x.Dim(0), -1)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil: Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
