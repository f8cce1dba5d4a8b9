// Package nn is the training substrate for the accuracy experiments
// (Figs. 7/8/9/16): a compact neural-network library with explicit
// forward/backward passes, the layers the four benchmark networks need
// (convolutions via im2col, batch norm, pooling, upsampling, residual
// blocks), the three losses (cross-entropy, MSE, BCE-with-logits), and
// SGD/Adam optimizers.
//
// The library is deliberately deterministic: weight initialization draws
// from a caller-supplied seeded RNG and there is no hidden global state,
// so every training curve in EXPERIMENTS.md reproduces exactly.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter and a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// Layer is one differentiable module. Forward caches whatever Backward
// needs; Backward consumes the cached state and returns the gradient
// with respect to the layer input. Layers are stateful and not safe for
// concurrent use (one trainer per model).
type Layer interface {
	// Forward computes the layer output. train selects training-time
	// behaviour (batch-norm statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient and
	// accumulates parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a sequential model.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs every layer's backward pass in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects all trainable parameters.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.Grad.Zero()
	}
}

// checkShape4 panics with a labelled message when x is not 4-D — the
// convolutional layers' contract.
func checkShape4(x *tensor.Tensor, layer string) {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s expects [BD,C,H,W], got %v", layer, x.Shape()))
	}
}
