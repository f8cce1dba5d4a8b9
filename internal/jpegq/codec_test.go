package jpegq

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func TestCodecValidation(t *testing.T) {
	if _, err := NewCodec(0); err == nil {
		t.Fatal("quality 0 must be rejected")
	}
	if _, err := NewCodec(101); err == nil {
		t.Fatal("quality 101 must be rejected")
	}
	c, err := NewCodec(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EncodePlane(make([]float32, 2*64), 8, 8, 0); err == nil {
		t.Fatal("input that is not one plane must be rejected")
	}
	if _, err := c.EncodePlane(make([]float32, 144), 12, 12, 0); err == nil {
		t.Fatal("non-multiple-of-8 must be rejected")
	}
	if err := c.DecodePlane(nil, make([]float32, 144), 12, 12, 0); err == nil {
		t.Fatal("non-multiple-of-8 output must be rejected")
	}
	if _, err := c.RoundTripPlane(make([]float32, 64), make([]float32, 128), 8, 16, 0); err == nil {
		t.Fatal("output shorter than the plane must be rejected")
	}
}

// roundTripPlanes round-trips every plane of a [BD, C, n, n] batch
// through RoundTripPlane with its channel's table, as the registry's
// jpegq family does, returning the reconstruction and the planes'
// summed stream bytes.
func roundTripPlanes(t testing.TB, c *Codec, x *tensor.Tensor) (*tensor.Tensor, int) {
	t.Helper()
	ch, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(x.Shape()...)
	total := 0
	for p := 0; p < x.Len()/(h*w); p++ {
		n, err := c.RoundTripPlane(out.Data()[p*h*w:(p+1)*h*w], x.Data()[p*h*w:(p+1)*h*w], h, w, p%ch)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return out, total
}

func TestCodecRoundTripQuality(t *testing.T) {
	gen := datagen.NewClassify(1, 32, 10)
	imgs, _ := gen.Batch(4)
	var prevPSNR, prevRatio float64
	prevRatio = 1e9
	for _, q := range []int{10, 50, 90} {
		c, err := NewCodec(q)
		if err != nil {
			t.Fatal(err)
		}
		out, bytes := roundTripPlanes(t, c, imgs)
		p := metrics.PSNR(imgs, out)
		ratio := float64(imgs.SizeBytes()) / float64(bytes)
		if p < prevPSNR {
			t.Fatalf("q=%d: PSNR %g below lower quality's %g", q, p, prevPSNR)
		}
		if ratio > prevRatio {
			t.Fatalf("q=%d: ratio %g above lower quality's %g", q, ratio, prevRatio)
		}
		prevPSNR, prevRatio = p, ratio
	}
	if prevPSNR < 25 {
		t.Fatalf("q=90 PSNR %g too low", prevPSNR)
	}
}

func TestCodecBeatsChopOnRatio(t *testing.T) {
	// The VLE stage that the accelerators cannot run buys JPEG real
	// compression: at moderate quality it should outcompress CF=4 chop
	// (CR 4) on the same images — the §3.2 trade-off quantified.
	gen := datagen.NewClassify(3, 32, 10)
	imgs, _ := gen.Batch(8)
	c, err := NewCodec(35)
	if err != nil {
		t.Fatal(err)
	}
	_, bytes := roundTripPlanes(t, c, imgs)
	ratio := float64(imgs.SizeBytes()) / float64(bytes)
	if ratio < 4 {
		t.Fatalf("JPEG q=35 ratio %g does not beat chop's fixed 4", ratio)
	}
}

func TestDecodePlaneRejectsGarbage(t *testing.T) {
	c, err := NewCodec(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecodePlane([]byte{1, 2, 3}, make([]float32, 64), 8, 8, 0); err == nil {
		t.Fatal("short stream must fail")
	}
	gen := datagen.NewClassify(2, 16, 10)
	imgs, _ := gen.Batch(1)
	data, err := c.EncodePlane(imgs.Data()[:16*16], 16, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecodePlane(data[:len(data)/2], make([]float32, 16*16), 16, 16, 0); err == nil {
		t.Fatal("truncated body must fail")
	}
}

// PSNRAtQuality compresses x at the given quality and reports (PSNR,
// compression ratio): TestPSNRAtQuality's probe of the quality sweep.
func PSNRAtQuality(t testing.TB, x *tensor.Tensor, quality int) (psnr, ratio float64, err error) {
	c, err := NewCodec(quality)
	if err != nil {
		return 0, 0, err
	}
	out, bytes := roundTripPlanes(t, c, x)
	mse := 0.0
	xd, od := x.Data(), out.Data()
	for i := range xd {
		d := float64(xd[i]) - float64(od[i])
		mse += d * d
	}
	mse /= float64(len(xd))
	if mse == 0 {
		psnr = math.Inf(1)
	} else {
		psnr = -10 * math.Log10(mse)
	}
	return psnr, float64(x.SizeBytes()) / float64(bytes), nil
}

func TestPSNRAtQuality(t *testing.T) {
	gen := datagen.NewClassify(5, 16, 10)
	imgs, _ := gen.Batch(2)
	p10, r10, err := PSNRAtQuality(t, imgs, 10)
	if err != nil {
		t.Fatal(err)
	}
	p90, r90, err := PSNRAtQuality(t, imgs, 90)
	if err != nil {
		t.Fatal(err)
	}
	if p90 <= p10 || r90 >= r10 {
		t.Fatalf("q10 (%.1f dB, %.1fx) vs q90 (%.1f dB, %.1fx) ordering wrong", p10, r10, p90, r90)
	}
}

func TestCodecGrayscale(t *testing.T) {
	// Single-channel input uses the luminance table only.
	gen := datagen.NewDenoise(2, 16)
	noisy, _ := gen.Batch(2)
	c, err := NewCodec(75)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := roundTripPlanes(t, c, noisy)
	if metrics.PSNR(noisy, out) < 25 {
		t.Fatalf("grayscale PSNR %g", metrics.PSNR(noisy, out))
	}
}

// TestEOBValueCoefficientFails: a block whose DC coefficient quantizes
// to −32768, vle's end-of-block value, fails EncodePlane and
// RoundTripPlane instead of decoding as an early block end. At quality
// 100 every step is 1, so a flat block of level-shifted value −4096 has
// DC 8·(−4096). So does a pixel of 1e12, whose DC is past the int32
// range and converts to math.MinInt32, which vle would code as a pure
// zero run.
func TestEOBValueCoefficientFails(t *testing.T) {
	c, err := NewCodec(100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float32{-3968.0 / 255, 1e12} {
		x := tensor.Full(v, 8, 8).Data()
		if _, err := c.EncodePlane(x, 8, 8, 0); err == nil {
			t.Fatalf("EncodePlane coded a flat %g block", v)
		}
		if _, err := c.RoundTripPlane(make([]float32, 64), x, 8, 8, 0); err == nil {
			t.Fatalf("RoundTripPlane coded a flat %g block", v)
		}
	}
	// One step less negative codes.
	if _, err := c.EncodePlane(tensor.Full(float32(-3967.875/255), 8, 8).Data(), 8, 8, 0); err != nil {
		t.Fatalf("DC -32767: %v", err)
	}
}

// TestNonFiniteCoefficientsRefused: a coefficient that is NaN or rounds
// past the int32 range quantizes to math.MinInt32, which vle refuses,
// on every GOARCH — Go leaves the plain conversion to the platform, and
// a saturating one would code a clamped coefficient that decodes
// silently wrong. So a plane holding NaN, ±Inf or 1e38 is refused by
// EncodePlane and RoundTripPlane alike, and every in-range value
// rounds as before.
func TestNonFiniteCoefficientsRefused(t *testing.T) {
	c, err := NewCodec(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e38} {
		x := tensor.Full(0.5, 8, 8).Data()
		x[9] = v
		if _, err := c.EncodePlane(x, 8, 8, 0); err == nil {
			t.Errorf("EncodePlane coded a plane holding %g", v)
		}
		if _, err := c.RoundTripPlane(make([]float32, 64), x, 8, 8, 0); err == nil {
			t.Errorf("RoundTripPlane coded a plane holding %g", v)
		}
	}
	for _, tc := range []struct {
		q    float64
		want int32
	}{
		{0.49, 0}, {0.5, 1}, {-0.5, -1}, {-2.5, -3},
		{math.MaxInt32 - 0.4, math.MaxInt32}, {math.MinInt32 + 0.4, math.MinInt32},
		{math.MaxInt32 + 0.5, math.MinInt32}, {math.MinInt32 - 0.5, math.MinInt32},
		{1e38, math.MinInt32}, {-1e38, math.MinInt32},
		{math.Inf(1), math.MinInt32}, {math.Inf(-1), math.MinInt32}, {math.NaN(), math.MinInt32},
	} {
		if got := quantize(tc.q); got != tc.want {
			t.Errorf("quantize(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
}
