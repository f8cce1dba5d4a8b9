package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestElementwiseArithmetic(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := a.Add(b).Data()[3]; got != 44 {
		t.Fatalf("Add = %g", got)
	}
	if got := b.Sub(a).Data()[0]; got != 9 {
		t.Fatalf("Sub = %g", got)
	}
	if got := a.Scale(2).Data()[2]; got != 6 {
		t.Fatalf("Scale = %g", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 5}, 2)
	a.AddInPlace(b)
	if a.Data()[1] != 7 {
		t.Fatalf("AddInPlace = %v", a.Data())
	}
	a.ScaleInPlace(0.5)
	if a.Data()[0] != 2 {
		t.Fatalf("ScaleInPlace = %v", a.Data())
	}
	a.Axpy(2, b)
	if a.Data()[1] != 3.5+10 {
		t.Fatalf("Axpy = %v", a.Data())
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float32{-1, 2, -3}, 3)
	abs := a.Apply(func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	})
	if abs.Data()[0] != 1 || abs.Data()[2] != 3 {
		t.Fatalf("Apply = %v", abs.Data())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 1, 4, -1}, 4)
	if a.Sum() != 1 {
		t.Fatalf("Sum = %g", a.Sum())
	}
	if a.Mean() != 0.25 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	if a.Min() != -3 || a.Max() != 4 || a.MaxAbs() != 4 {
		t.Fatal("Min/Max/MaxAbs wrong")
	}
	if a.Argmax() != 2 {
		t.Fatalf("Argmax = %d", a.Argmax())
	}
	if got := a.Norm2(); math.Abs(got-math.Sqrt(9+1+16+1)) > 1e-9 {
		t.Fatalf("Norm2 = %g", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Add shape mismatch")
	New(2, 2).Add(New(4))
}

// Property: Add is commutative and Sub is its inverse.
func TestAddSubProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%32) + 1
		r := NewRNG(seed)
		a := r.Uniform(-10, 10, n)
		b := r.Uniform(-10, 10, n)
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		return a.Add(b).Sub(b).AllClose(a, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42).Uniform(0, 1, 100)
	b := NewRNG(42).Uniform(0, 1, 100)
	if !a.Equal(b) {
		t.Fatal("same seed must reproduce the same stream")
	}
	c := NewRNG(43).Uniform(0, 1, 100)
	if a.Equal(c) {
		t.Fatal("different seeds must differ")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(7)
	x := r.Normal(2, 3, 20000)
	mean := x.Mean()
	if math.Abs(mean-2) > 0.1 {
		t.Fatalf("Normal mean = %g, want ≈2", mean)
	}
	var varsum float64
	for _, v := range x.Data() {
		d := float64(v) - mean
		varsum += d * d
	}
	std := math.Sqrt(varsum / float64(x.Len()))
	if math.Abs(std-3) > 0.15 {
		t.Fatalf("Normal std = %g, want ≈3", std)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(1)
	x := r.Uniform(-3, 5, 1000)
	if x.Min() < -3 || x.Max() >= 5 {
		t.Fatalf("Uniform out of range: [%g, %g]", x.Min(), x.Max())
	}
}
