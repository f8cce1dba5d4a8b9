package dct

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestTransformOrthonormal(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		tr := Transform(n)
		prod := tensor.MatMul(tr, tr.Transpose())
		if d := prod.MaxAbsDiff(tensor.Eye(n)); d > 1e-5 {
			t.Fatalf("n=%d: T·Tᵀ deviates from I by %g", n, d)
		}
	}
}

func TestTransformFirstRowConstant(t *testing.T) {
	tr := Transform(8)
	want := float32(1 / math.Sqrt(8))
	for j := 0; j < 8; j++ {
		if math.Abs(float64(tr.At2(0, j)-want)) > 1e-6 {
			t.Fatalf("T[0][%d] = %g, want %g", j, tr.At2(0, j), want)
		}
	}
}

func TestApply2DMatchesDirect(t *testing.T) {
	r := tensor.NewRNG(3)
	for _, n := range []int{4, 8} {
		a := r.Uniform(-1, 1, n, n)
		matrixForm := Apply2D(a)
		direct := Direct2D(a)
		if d := matrixForm.MaxAbsDiff(direct); d > 1e-4 {
			t.Fatalf("n=%d: matrix DCT deviates from Eq. 1 double sum by %g", n, d)
		}
	}
}

func TestDCCoefficientIsScaledMean(t *testing.T) {
	// The paper notes D[0,0] "is representative of the average value of A":
	// with orthonormal T, D[0,0] = n · mean(A).
	r := tensor.NewRNG(5)
	a := r.Uniform(0, 10, 8, 8)
	d := Apply2D(a)
	want := 8 * a.Mean()
	if math.Abs(float64(d.At2(0, 0))-want) > 1e-3 {
		t.Fatalf("DC = %g, want %g", d.At2(0, 0), want)
	}
}

func TestInvert2DRoundTrip(t *testing.T) {
	r := tensor.NewRNG(7)
	a := r.Uniform(-5, 5, 8, 8)
	back := Invert2D(Apply2D(a))
	if d := back.MaxAbsDiff(a); d > 1e-4 {
		t.Fatalf("DCT round trip error %g", d)
	}
}

func TestParsevalEnergyPreserved(t *testing.T) {
	// Orthonormal transform preserves Frobenius norm.
	r := tensor.NewRNG(9)
	a := r.Uniform(-2, 2, 8, 8)
	d := Apply2D(a)
	if diff := math.Abs(a.Norm2() - d.Norm2()); diff > 1e-4 {
		t.Fatalf("energy not preserved: |A|=%g |D|=%g", a.Norm2(), d.Norm2())
	}
}

func TestConstantBlockCompactsToDC(t *testing.T) {
	a := tensor.Full(3, 8, 8)
	d := Apply2D(a)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			v := float64(d.At2(i, j))
			if i == 0 && j == 0 {
				if math.Abs(v-24) > 1e-4 { // 8 · mean(3)
					t.Fatalf("DC = %g, want 24", v)
				}
			} else if math.Abs(v) > 1e-4 {
				t.Fatalf("AC coefficient (%d,%d) = %g, want 0", i, j, v)
			}
		}
	}
}

func TestBlockDiagTransform(t *testing.T) {
	tl := BlockDiag(Transform(8), 3)
	if tl.Dim(0) != 24 || tl.Dim(1) != 24 {
		t.Fatalf("T_L shape %v", tl.Shape())
	}
	// Block-diagonal structure: off-diagonal blocks are zero.
	tr := Transform(8)
	for bi := 0; bi < 3; bi++ {
		for bj := 0; bj < 3; bj++ {
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					got := tl.At2(bi*8+i, bj*8+j)
					var want float32
					if bi == bj {
						want = tr.At2(i, j)
					}
					if got != want {
						t.Fatalf("T_L[%d,%d] block (%d,%d) wrong", bi*8+i, bj*8+j, bi, bj)
					}
				}
			}
		}
	}
	// T_L is itself orthonormal.
	if d := tensor.MatMul(tl, tl.Transpose()).MaxAbsDiff(tensor.Eye(24)); d > 1e-5 {
		t.Fatalf("T_L not orthonormal: %g", d)
	}
}

func TestChopMaskStructure(t *testing.T) {
	// Fig. 4: n=24, CF=5 → M is 15×24 with one 1 per row at blk*8+i.
	m := ChopMask(24, 5, 8)
	if m.Dim(0) != 15 || m.Dim(1) != 24 {
		t.Fatalf("M shape %v", m.Shape())
	}
	ones := 0
	for i := 0; i < 15; i++ {
		for j := 0; j < 24; j++ {
			v := m.At2(i, j)
			if v != 0 && v != 1 {
				t.Fatalf("M[%d,%d] = %g", i, j, v)
			}
			if v == 1 {
				ones++
				blk, off := i/5, i%5
				if j != blk*8+off {
					t.Fatalf("M 1 at (%d,%d), want column %d", i, j, blk*8+off)
				}
			}
		}
	}
	if ones != 15 {
		t.Fatalf("M has %d ones, want one per row (15)", ones)
	}
}

func TestChopMaskSelectsUpperLeft(t *testing.T) {
	// M·D·Mᵀ must equal the upper-left cf×cf corner of each 8×8 block.
	r := tensor.NewRNG(11)
	n, cf := 16, 3
	d := r.Uniform(-1, 1, n, n)
	m := ChopMask(n, cf, 8)
	y := tensor.MatMul(tensor.MatMul(m, d), m.Transpose())
	if y.Dim(0) != cf*n/8 {
		t.Fatalf("Y shape %v", y.Shape())
	}
	for bi := 0; bi < n/8; bi++ {
		for bj := 0; bj < n/8; bj++ {
			for i := 0; i < cf; i++ {
				for j := 0; j < cf; j++ {
					got := y.At2(bi*cf+i, bj*cf+j)
					want := d.At2(bi*8+i, bj*8+j)
					if got != want {
						t.Fatalf("chopped (%d,%d,%d,%d) = %g, want %g", bi, bj, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestChopMaskValidation(t *testing.T) {
	defer expectPanic(t, "n not multiple of block")
	ChopMask(20, 3, 8)
}

func TestZigZagIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		z := ZigZag(n)
		if len(z) != n*n {
			t.Fatalf("n=%d: zigzag length %d", n, len(z))
		}
		seen := make([]bool, n*n)
		for _, ix := range z {
			if ix < 0 || ix >= n*n || seen[ix] {
				t.Fatalf("n=%d: zigzag not a permutation: %v", n, z)
			}
			seen[ix] = true
		}
	}
}

func TestZigZag4Known(t *testing.T) {
	// Standard 4×4 zigzag path.
	want := []int{0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15}
	got := ZigZag(4)
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("ZigZag(4) = %v, want %v", got, want)
		}
	}
}

func TestZigZagVisitsDiagonalsInOrder(t *testing.T) {
	// Anti-diagonal index i+j must be non-decreasing along the walk.
	n := 8
	last := -1
	for _, ix := range ZigZag(n) {
		d := ix/n + ix%n
		if d < last {
			t.Fatalf("zigzag visits diagonal %d after %d", d, last)
		}
		last = d
	}
}

func TestTriangleIndices(t *testing.T) {
	// cf=3, b=8: rows i with i+j<3 → (0,0),(0,1),(0,2),(1,0),(1,1),(2,0).
	want := []int{0, 1, 2, 8, 9, 16}
	got := TriangleIndices(3, 8)
	if len(got) != TriangleCount(3) {
		t.Fatalf("TriangleIndices count %d, want %d", len(got), TriangleCount(3))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("TriangleIndices(3,8) = %v, want %v", got, want)
		}
	}
}

func TestTriangleSubsetOfZigZagPrefix(t *testing.T) {
	// The cf-triangle is exactly the first cf(cf+1)/2 cells of the zigzag
	// walk (as sets) — the paper's rationale for why triangle retention
	// keeps the most significant coefficients.
	for cf := 1; cf <= 8; cf++ {
		tri := TriangleIndices(cf, 8)
		prefix := ZigZag(8)[:TriangleCount(cf)]
		inPrefix := make(map[int]bool)
		for _, ix := range prefix {
			inPrefix[ix] = true
		}
		for _, ix := range tri {
			if !inPrefix[ix] {
				t.Fatalf("cf=%d: triangle index %d not in zigzag prefix", cf, ix)
			}
		}
	}
}

func TestFLOPFormulas(t *testing.T) {
	// Eq. 5/7 at n=8, cf=8 (no chop): both reduce to the cost of two
	// dense 8×8 matmuls minus the load terms.
	c := CompressFLOPs(8, 8)
	d := DecompressFLOPs(8, 8)
	wantC := (2.0*512*8/8)*(2) - 64*(1+1)
	if math.Abs(c-wantC) > 1e-9 {
		t.Fatalf("CompressFLOPs(8,8) = %g, want %g", c, wantC)
	}
	// Paper: decompression needs fewer FLOPs than compression for CF<8.
	for cf := 1; cf < 8; cf++ {
		if DecompressFLOPs(64, cf) >= CompressFLOPs(64, cf) {
			t.Fatalf("cf=%d: decompress FLOPs not lower", cf)
		}
	}
	// And at CF=8 they coincide up to the load terms' sign.
	if d > c {
		t.Fatalf("cf=8: decompress %g > compress %g", d, c)
	}
}

func TestFLOPsScaleCubically(t *testing.T) {
	// Doubling n should scale the leading term by 8×.
	r := CompressFLOPs(256, 4) / CompressFLOPs(128, 4)
	if r < 7.5 || r > 8.5 {
		t.Fatalf("FLOPs(256)/FLOPs(128) = %g, want ≈8", r)
	}
}

// Property: chop-then-invert error is bounded by the energy in the
// discarded coefficients (Parseval), and cf=8 is lossless.
func TestChopErrorBoundedProperty(t *testing.T) {
	f := func(seed uint64, rawCF uint8) bool {
		cf := int(rawCF%8) + 1
		r := tensor.NewRNG(seed)
		a := r.Uniform(-1, 1, 8, 8)
		d := Apply2D(a)
		// Zero everything outside the cf×cf corner.
		chopped := tensor.New(8, 8)
		var discarded float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i < cf && j < cf {
					chopped.Set2(d.At2(i, j), i, j)
				} else {
					discarded += float64(d.At2(i, j)) * float64(d.At2(i, j))
				}
			}
		}
		back := Invert2D(chopped)
		errNorm := back.Sub(a).Norm2()
		if cf == 8 {
			return errNorm < 1e-4
		}
		return errNorm <= math.Sqrt(discarded)+1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
