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
	if _, err := c.Compress(tensor.New(8, 8)); err == nil {
		t.Fatal("2-D input must be rejected")
	}
	if _, err := c.Compress(tensor.New(1, 1, 12, 12)); err == nil {
		t.Fatal("non-multiple-of-8 must be rejected")
	}
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
		out, bytes, err := c.RoundTrip(imgs)
		if err != nil {
			t.Fatal(err)
		}
		if !out.SameShape(imgs) {
			t.Fatalf("shape %v", out.Shape())
		}
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
	_, bytes, err := c.RoundTrip(imgs)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(imgs.SizeBytes()) / float64(bytes)
	if ratio < 4 {
		t.Fatalf("JPEG q=35 ratio %g does not beat chop's fixed 4", ratio)
	}
}

func TestCodecHeaderRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("short stream must fail")
	}
	if _, err := Decompress(make([]byte, 64)); err == nil {
		t.Fatal("zero magic must fail")
	}
	// Valid header, truncated body.
	gen := datagen.NewClassify(2, 16, 10)
	imgs, _ := gen.Batch(1)
	c, err := NewCodec(50)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(data[:30]); err == nil {
		t.Fatal("truncated body must fail")
	}
}

// PSNRAtQuality compresses x at the given quality and reports (PSNR,
// compression ratio): TestPSNRAtQuality's probe of the quality sweep.
func PSNRAtQuality(x *tensor.Tensor, quality int) (psnr, ratio float64, err error) {
	c, err := NewCodec(quality)
	if err != nil {
		return 0, 0, err
	}
	out, bytes, err := c.RoundTrip(x)
	if err != nil {
		return 0, 0, err
	}
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
	p10, r10, err := PSNRAtQuality(imgs, 10)
	if err != nil {
		t.Fatal(err)
	}
	p90, r90, err := PSNRAtQuality(imgs, 90)
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
	out, _, err := c.RoundTrip(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.PSNR(noisy, out) < 25 {
		t.Fatalf("grayscale PSNR %g", metrics.PSNR(noisy, out))
	}
}

// TestEOBValueCoefficientFails: a block whose DC coefficient quantizes
// to −32768, vle's end-of-block value, fails Compress and RoundTripPlane
// instead of decoding as an early block end. At quality 100 every step
// is 1, so a flat block of level-shifted value −4096 has DC 8·(−4096).
func TestEOBValueCoefficientFails(t *testing.T) {
	c, err := NewCodec(100)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Full(float32(-3968.0/255), 1, 1, 8, 8)
	if _, err := c.Compress(x); err == nil {
		t.Fatal("Compress coded a -32768 coefficient")
	}
	if _, err := c.RoundTripPlane(make([]float32, 64), x.Data(), 8, 8, 0); err == nil {
		t.Fatal("RoundTripPlane coded a -32768 coefficient")
	}
	// One step less negative codes.
	if _, err := c.Compress(tensor.Full(float32(-3967.875/255), 1, 1, 8, 8)); err != nil {
		t.Fatalf("DC -32767: %v", err)
	}
}
