package zfp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// encode codes one h×w plane, a 2-D tensor, and returns its stream.
func encode(c *Codec, x *tensor.Tensor) ([]byte, error) {
	h, w := x.Dim(0), x.Dim(1)
	buf := make([]byte, c.CompressedBytes(1, h, w)+8)
	e := bitstream.NewEmitter(buf)
	if err := c.EncodePlane(&e, x.Data(), h, w); err != nil {
		return nil, err
	}
	return buf[:e.Len()], nil
}

// decode reconstructs an h×w plane from an EncodePlane stream.
func decode(c *Codec, data []byte, h, w int) (*tensor.Tensor, error) {
	out := tensor.New(h, w)
	return out, c.DecodePlane(bitstream.NewReader(data), out.Data(), h, w)
}

// roundTrip codes and decodes one h×w plane, returning the
// reconstruction and the stream's length in bytes.
func roundTrip(t testing.TB, c *Codec, x *tensor.Tensor) (*tensor.Tensor, int) {
	t.Helper()
	data, err := encode(c, x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decode(c, data, x.Dim(0), x.Dim(1))
	if err != nil {
		t.Fatal(err)
	}
	return out, len(data)
}

func TestNewValidatesRate(t *testing.T) {
	for _, r := range []float64{0, 0.5, 33, -1} {
		if _, err := New(r); err == nil {
			t.Errorf("rate %g must be rejected", r)
		}
	}
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ratio() != 4 {
		t.Fatalf("Ratio = %g, want 4", c.Ratio())
	}
}

func TestSTransformExactInverse(t *testing.T) {
	rng := tensor.NewRNG(1)
	for trial := 0; trial < 1000; trial++ {
		a := int32(rng.Intn(1<<26) - 1<<25)
		b := int32(rng.Intn(1<<26) - 1<<25)
		s, d := sFwd(a, b)
		a2, b2 := sInv(s, d)
		if a2 != a || b2 != b {
			t.Fatalf("S-transform not invertible: (%d,%d) → (%d,%d) → (%d,%d)", a, b, s, d, a2, b2)
		}
	}
}

func TestLiftExactInverse(t *testing.T) {
	rng := tensor.NewRNG(2)
	for trial := 0; trial < 500; trial++ {
		var p, orig [4]int32
		for i := range p {
			p[i] = int32(rng.Intn(1<<26) - 1<<25)
			orig[i] = p[i]
		}
		fwdLift(p[:], 1)
		invLift(p[:], 1)
		if p != orig {
			t.Fatalf("lift not invertible: %v → %v", orig, p)
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 42, -42, math.MaxInt32 / 2, math.MinInt32 / 2} {
		if fromNegabinary(toNegabinary(v)) != v {
			t.Fatalf("negabinary round trip failed for %d", v)
		}
	}
}

func TestNegabinarySmallMagnitudesLowBits(t *testing.T) {
	// The point of negabinary: |v| small ⇒ only low bits set, so
	// MSB-first truncation keeps small corrections droppable.
	for _, v := range []int32{-8, -1, 0, 1, 8} {
		u := toNegabinary(v)
		if u>>8 != 0 {
			t.Fatalf("negabinary(%d) = %#x has high bits", v, u)
		}
	}
}

func TestSequencyOrderIsPermutationStartingAtDC(t *testing.T) {
	seen := make([]bool, blockValues)
	for _, ix := range sequencyOrder {
		if ix < 0 || ix >= blockValues || seen[ix] {
			t.Fatalf("sequencyOrder not a permutation: %v", sequencyOrder)
		}
		seen[ix] = true
	}
	if sequencyOrder[0] != 0 {
		t.Fatalf("first coefficient must be LL (0), got %d", sequencyOrder[0])
	}
}

func TestHighRateNearLossless(t *testing.T) {
	c, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(3)
	x := rng.Uniform(-1, 1, 16, 16)
	out, _ := roundTrip(t, c, x)
	if d := out.MaxAbsDiff(x); d > 1e-5 {
		t.Fatalf("rate-32 round trip error %g", d)
	}
}

func TestQualityImprovesWithRate(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := smooth2D(rng, 32)
	var prev float64 = -1
	for _, rate := range []float64{2, 4, 8, 16, 24} {
		c, err := New(rate)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := roundTrip(t, c, x)
		p := metrics.PSNR(x, out)
		if p < prev {
			t.Fatalf("rate %g: PSNR %g dropped below %g", rate, p, prev)
		}
		prev = p
	}
	if prev < 60 {
		t.Fatalf("rate-24 PSNR %g too low for smooth data", prev)
	}
}

func TestCompressedSizeBounded(t *testing.T) {
	// Fixed-rate budget: compressed bytes never exceed rate/32 of the
	// input (group flags can only shrink it).
	rng := tensor.NewRNG(5)
	x := rng.Uniform(-1, 1, 96, 16)
	for _, rate := range []float64{2, 4, 8} {
		c, err := New(rate)
		if err != nil {
			t.Fatal(err)
		}
		data, err := encode(c, x)
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(x.Len())*rate/8 + 8
		if float64(len(data)) > bound {
			t.Fatalf("rate %g: %d bytes exceeds budget %g", rate, len(data), bound)
		}
	}
}

func TestAllZeroBlock(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(8, 8)
	out, n := roundTrip(t, c, x)
	if out.MaxAbs() != 0 {
		t.Fatal("zero input must reconstruct to zero")
	}
	if n == 0 {
		t.Fatal("headers must still be written")
	}
}

func TestConstantBlockReconstructsWell(t *testing.T) {
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Full(3.25, 8, 8)
	out, _ := roundTrip(t, c, x)
	// A constant block is pure LL energy: even 4 bits/value suffices.
	if d := out.MaxAbsDiff(x); d > 0.01 {
		t.Fatalf("constant block error %g at rate 4", d)
	}
}

func TestMultiPlaneTensor(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(6)
	x := rng.Uniform(0, 1, 2, 3, 8, 8) // 6 planes, each its own stream
	out := tensor.New(x.Shape()...)
	for p := 0; p < 6; p++ {
		plane, _ := roundTrip(t, c, tensor.FromSlice(x.Data()[p*64:(p+1)*64], 8, 8))
		copy(out.Data()[p*64:], plane.Data())
	}
	if metrics.PSNR(x, out) < 20 {
		t.Fatalf("multi-plane PSNR %g too low", metrics.PSNR(x, out))
	}
}

func TestRejectsTruncatedStream(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(c, []byte{1, 2}, 8, 8); err == nil {
		t.Fatal("truncated stream must be rejected")
	}
}

// TestNonFiniteRefused: a block holding NaN or ±Inf has no fixed-point
// form, so EncodePlane refuses it with ErrNonFinite, in whichever mode
// the kernels run; the finite extremes code.
func TestNonFiniteRefused(t *testing.T) {
	c, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		x := tensor.Full(0.5, 8, 8)
		x.Data()[37] = v
		if _, err := encode(c, x); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%g: EncodePlane returned %v, want %v", v, err, ErrNonFinite)
		}
	}
	x := tensor.Full(0.5, 8, 8)
	copy(x.Data()[30:], []float32{1e38, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1))})
	roundTrip(t, c, x)
}

func TestLargeDynamicRange(t *testing.T) {
	// Block-floating-point must handle values spanning many orders of
	// magnitude without NaN/Inf.
	c, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 4)
	vals := []float32{1e-20, 1e20, -1e10, 3.14, 0, -1e-10, 42, 1e5,
		-2, 7e7, 1e-5, -9e9, 0.5, -0.25, 6e6, -3e3}
	copy(x.Data(), vals)
	out, _ := roundTrip(t, c, x)
	for _, v := range out.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite reconstruction")
		}
	}
	// The dominant value must be preserved to within block precision.
	if math.Abs(float64(out.At2(0, 1))-1e20)/1e20 > 0.01 {
		t.Fatalf("dominant value reconstructed as %g", out.At2(0, 1))
	}
}

// Property: reconstruction error is bounded by the scale of the block's
// largest value times 2^-(effective precision at the rate).
func TestErrorBoundedProperty(t *testing.T) {
	c, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		x := rng.Uniform(-4, 4, 8, 8)
		out, _ := roundTrip(t, c, x)
		// 16 bits/value on an 8-magnitude range: max error well under 1%.
		return out.MaxAbsDiff(x) < 0.04
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func smooth2D(rng *tensor.RNG, n int) *tensor.Tensor {
	x := tensor.New(n, n)
	fx := 1 + rng.Float64()
	fy := 1 + rng.Float64()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Sin(fx*math.Pi*float64(i)/float64(n)) * math.Cos(fy*math.Pi*float64(j)/float64(n))
			x.Set2(float32(v), i, j)
		}
	}
	return x
}
