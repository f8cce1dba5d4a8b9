package tensor

import (
	"fmt"
	"math"
)

func (t *Tensor) checkSame(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// Add returns t + o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.checkSame(o, "Add")
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] + o.data[i]
	}
	return out
}

// AddInPlace sets t += o.
func (t *Tensor) AddInPlace(o *Tensor) {
	t.checkSame(o, "AddInPlace")
	for i := range t.data {
		t.data[i] += o.data[i]
	}
}

// Sub returns t - o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.checkSame(o, "Sub")
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] - o.data[i]
	}
	return out
}

// Scale returns t * s elementwise.
func (t *Tensor) Scale(s float32) *Tensor {
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = t.data[i] * s
	}
	return out
}

// ScaleInPlace sets t *= s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// Axpy sets t += alpha*o (the BLAS update used by the optimizers).
func (t *Tensor) Axpy(alpha float32, o *Tensor) {
	t.checkSame(o, "Axpy")
	for i := range t.data {
		t.data[i] += alpha * o.data[i]
	}
}

// Apply returns f mapped over every element.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Sum returns the sum of all elements (float64 accumulator).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Min returns the smallest element.
func (t *Tensor) Min() float32 {
	if len(t.data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element.
func (t *Tensor) Max() float32 {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.data[0]
	for _, v := range t.data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Argmax returns the flat index of the largest element.
func (t *Tensor) Argmax() int {
	if len(t.data) == 0 {
		panic("tensor: Argmax of empty tensor")
	}
	best, bi := t.data[0], 0
	for i, v := range t.data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm (float64 accumulator).
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
