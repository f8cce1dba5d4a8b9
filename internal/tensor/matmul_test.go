package tensor

import (
	"testing"
	"testing/quick"
)

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data()[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := NewRNG(7)
	a := r.Uniform(-1, 1, 9, 9)
	c := MatMul(a, Eye(9))
	if !c.Equal(a) {
		t.Fatal("A×I must equal A exactly")
	}
	c = MatMul(Eye(9), a)
	if !c.Equal(a) {
		t.Fatal("I×A must equal A exactly")
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	r := NewRNG(11)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {17, 31, 13}, {64, 48, 96}, {130, 70, 90}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := r.Uniform(-2, 2, m, k)
		b := r.Uniform(-2, 2, k, n)
		fast := MatMul(a, b)
		ref := MatMulNaive(a, b)
		if d := fast.MaxAbsDiff(ref); d > 1e-4 {
			t.Fatalf("MatMul(%dx%dx%d) deviates from naive by %g", m, k, n, d)
		}
	}
}

func TestMatMulParallelPathMatchesNaive(t *testing.T) {
	// Large enough to cross matmulParallelThreshold.
	r := NewRNG(13)
	a := r.Uniform(-1, 1, 80, 60)
	b := r.Uniform(-1, 1, 60, 80)
	if d := MatMul(a, b).MaxAbsDiff(MatMulNaive(a, b)); d > 1e-4 {
		t.Fatalf("parallel matmul deviates by %g", d)
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer expectPanic(t, "inner dim mismatch")
	MatMul(New(2, 3), New(4, 2))
}

func TestBatchedMatMul(t *testing.T) {
	r := NewRNG(19)
	a := r.Uniform(-1, 1, 4, 3, 5, 6) // [BD=4, C=3, 5, 6]
	b := r.Uniform(-1, 1, 6, 7)
	c := BatchedMatMul(a, b)
	wantShape := []int{4, 3, 5, 7}
	for i, d := range c.Shape() {
		if d != wantShape[i] {
			t.Fatalf("BatchedMatMul shape %v, want %v", c.Shape(), wantShape)
		}
	}
	// Spot-check every plane against the 2-D product.
	for bd := 0; bd < 4; bd++ {
		for ch := 0; ch < 3; ch++ {
			plane := a.Index(bd).Index(ch)
			want := MatMul(plane, b)
			got := c.Index(bd).Index(ch)
			if d := got.MaxAbsDiff(want); d > 1e-5 {
				t.Fatalf("batch (%d,%d) deviates by %g", bd, ch, d)
			}
		}
	}
}

func TestBatchedMatMulLeft(t *testing.T) {
	r := NewRNG(23)
	a := r.Uniform(-1, 1, 2, 3, 6, 5)
	b := r.Uniform(-1, 1, 4, 6)
	c := BatchedMatMulLeft(b, a)
	if c.Dim(-2) != 4 || c.Dim(-1) != 5 {
		t.Fatalf("BatchedMatMulLeft shape %v", c.Shape())
	}
	for bd := 0; bd < 2; bd++ {
		for ch := 0; ch < 3; ch++ {
			want := MatMul(b, a.Index(bd).Index(ch))
			got := c.Index(bd).Index(ch)
			if d := got.MaxAbsDiff(want); d > 1e-5 {
				t.Fatalf("batch (%d,%d) deviates by %g", bd, ch, d)
			}
		}
	}
}

// Property: (A×B)ᵀ = Bᵀ×Aᵀ — exercises MatMul and Transpose together on
// randomized shapes and contents.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed uint64, rawM, rawK, rawN uint8) bool {
		m := int(rawM%12) + 1
		k := int(rawK%12) + 1
		n := int(rawN%12) + 1
		r := NewRNG(seed)
		a := r.Uniform(-3, 3, m, k)
		b := r.Uniform(-3, 3, k, n)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return lhs.MaxAbsDiff(rhs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A×(B+C) = A×B + A×C.
func TestMatMulDistributesProperty(t *testing.T) {
	f := func(seed uint64, rawM, rawK, rawN uint8) bool {
		m := int(rawM%10) + 1
		k := int(rawK%10) + 1
		n := int(rawN%10) + 1
		r := NewRNG(seed)
		a := r.Uniform(-2, 2, m, k)
		b := r.Uniform(-2, 2, k, n)
		c := r.Uniform(-2, 2, k, n)
		lhs := MatMul(a, b.Add(c))
		rhs := MatMul(a, b).Add(MatMul(a, c))
		return lhs.MaxAbsDiff(rhs) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 100, 1000} {
		hits := make([]int32, n)
		ParallelFor(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}
