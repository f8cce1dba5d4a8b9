package sz

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/tensor"
	"repro/internal/zfp"
)

func TestNewValidation(t *testing.T) {
	for _, eb := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := New(eb); err == nil {
			t.Errorf("error bound %g must be rejected", eb)
		}
	}
	if _, err := New(1e-3); err != nil {
		t.Fatal(err)
	}
}

func TestErrorBoundRespected(t *testing.T) {
	r := tensor.NewRNG(1)
	x := smooth(r, 32)
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
		c, err := New(eb)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := c.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := out.MaxAbsDiff(x); d > eb+1e-7 {
			t.Fatalf("eb=%g: max error %g exceeds bound", eb, d)
		}
	}
}

func TestSmoothDataCompressesWell(t *testing.T) {
	r := tensor.NewRNG(2)
	x := smooth(r, 64)
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	_, bytes, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	cr := float64(x.SizeBytes()) / float64(bytes)
	if cr < 4 {
		t.Fatalf("smooth-data CR %g too low for eb=1e-2", cr)
	}
}

func TestTighterBoundLowerRatio(t *testing.T) {
	r := tensor.NewRNG(3)
	x := smooth(r, 32)
	var prev float64 = math.MaxFloat64
	for _, eb := range []float64{1e-1, 1e-2, 1e-3, 1e-5} {
		c, err := New(eb)
		if err != nil {
			t.Fatal(err)
		}
		_, bytes, err := c.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		cr := float64(x.SizeBytes()) / float64(bytes)
		if cr > prev+1e-9 {
			t.Fatalf("eb=%g: CR %g rose above looser bound's %g", eb, cr, prev)
		}
		prev = cr
	}
}

func TestUnpredictablePathExact(t *testing.T) {
	// Spiky data defeats the Lorenzo predictor: those values go through
	// the verbatim path and must reconstruct exactly.
	x := tensor.New(8, 8)
	x.Set2(1e8, 3, 3)
	x.Set2(-1e8, 5, 5)
	c, err := New(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.At2(3, 3) != 1e8 || out.At2(5, 5) != -1e8 {
		t.Fatal("unpredictable values must be stored verbatim")
	}
	if d := out.MaxAbsDiff(x); d > 1e-6 {
		t.Fatalf("max error %g", d)
	}
}

func TestMultiPlane(t *testing.T) {
	r := tensor.NewRNG(4)
	x := r.Uniform(0, 1, 2, 3, 16, 16)
	c, err := New(5e-3)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if !out.SameShape(x) {
		t.Fatalf("shape %v", out.Shape())
	}
	if d := out.MaxAbsDiff(x); d > 5e-3+1e-7 {
		t.Fatalf("max error %g", d)
	}
}

func TestDecompressValidation(t *testing.T) {
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(5)
	x := r.Uniform(0, 1, 8, 8)
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(data, 4, 4); err == nil {
		t.Fatal("wrong shape must be rejected")
	}
	if _, err := c.Decompress(data[:8], 8, 8); err == nil {
		t.Fatal("truncated stream must be rejected")
	}
	if _, err := c.Decompress([]byte{1, 2, 3, 4, 5}, 8, 8); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	if _, err := c.Compress(tensor.New(8)); err == nil {
		t.Fatal("1-D input must be rejected")
	}
}

func TestDeterministic(t *testing.T) {
	r := tensor.NewRNG(6)
	x := r.Uniform(0, 1, 16, 16)
	c, err := New(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("compression must be deterministic")
	}
}

// TestEOBCodeHoldsBound: a residual that quantizes to exactly −32768,
// the value vle codes as its end-of-block marker, is stored verbatim,
// so the bound holds — on a plane built to hit it and on the random
// field that found the collision (there a row's last cell hit it, its
// row decoded as ending early and every later row one row late).
func TestEOBCodeHoldsBound(t *testing.T) {
	const eb = 1e-5
	step := 2 * float64(float32(eb))
	planted := tensor.New(3, 4)
	planted.Data()[3] = float32(-32768 * step) // predicted by its west neighbour, 0
	if q := math.Round(float64(planted.Data()[3]) / step); q != math.MinInt16 {
		t.Fatalf("planted cell quantizes to %g, want -32768", q)
	}
	c, err := New(eb)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*tensor.Tensor{planted, tensor.NewRNG(0xf9a1da63ae68f55).Uniform(-3, 3, 12, 12)} {
		requireReference(t, c, x)
	}
}

// Property: the error bound holds for arbitrary data and bounds.
func TestErrorBoundProperty(t *testing.T) {
	f := func(seed uint64, rawEB uint8) bool {
		eb := math.Pow(10, -1-float64(rawEB%5)) // 1e-1 … 1e-5
		c, err := New(eb)
		if err != nil {
			return false
		}
		r := tensor.NewRNG(seed)
		x := r.Uniform(-3, 3, 12, 12)
		out, _, err := c.RoundTrip(x)
		if err != nil {
			return false
		}
		return out.MaxAbsDiff(x) <= eb+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSZVsZFPOnMicrographs(t *testing.T) {
	// The two scientific-data baselines side by side, as §2.2 frames
	// them: SZ bounds error and lets rate float; ZFP fixes rate and
	// lets error float. Both must deliver usable reconstructions.
	gen := datagen.NewDenoise(7, 32)
	noisy, _ := gen.Batch(2)
	szc, err := New(0.02)
	if err != nil {
		t.Fatal(err)
	}
	szOut, szBytes, err := szc.RoundTrip(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if szOut.MaxAbsDiff(noisy) > 0.02+1e-6 {
		t.Fatal("SZ bound violated on micrographs")
	}
	zc, err := zfp.New(8)
	if err != nil {
		t.Fatal(err)
	}
	_, zBytes, err := zc.RoundTrip(noisy)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("micrographs: SZ(eb=0.02) CR %.2f vs ZFP(rate 8) CR %.2f",
		float64(noisy.SizeBytes())/float64(szBytes),
		float64(noisy.SizeBytes())/float64(zBytes))
}

func smooth(r *tensor.RNG, n int) *tensor.Tensor {
	x := tensor.New(n, n)
	fx := 1 + r.Float64()
	fy := 1 + r.Float64()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Sin(fx*math.Pi*float64(i)/float64(n))*math.Cos(fy*math.Pi*float64(j)/float64(n)) +
				0.3*math.Sin(3*math.Pi*float64(i+j)/float64(n))
			x.Set2(float32(v), i, j)
		}
	}
	return x
}

// BenchmarkDecompressInto decodes one [4,8,128,128] CloudSeg record
// at eb=1e-3 plane by plane into a reused output, as the codec
// registry stores and decodes sz records.
func BenchmarkDecompressInto(b *testing.B) {
	c, err := New(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := datagen.NewCloudSeg(1, 128, 8).Batch(4)
	const hw = 128 * 128
	parts := make([][]byte, x.Len()/hw)
	for p := range parts {
		if parts[p], err = c.Compress(tensor.FromSlice(x.Data()[p*hw:(p+1)*hw], 128, 128)); err != nil {
			b.Fatal(err)
		}
	}
	dst := make([]float32, x.Len())
	b.SetBytes(int64(4 * len(dst)))
	b.ResetTimer()
	for range b.N {
		for p, part := range parts {
			if err := c.DecompressInto(dst[p*hw:(p+1)*hw], part, 128, 128); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompress encodes one [4,8,128,128] CloudSeg record at
// eb=1e-3 plane by plane, as the codec registry stores sz records: the
// encode twin of BenchmarkDecompressInto.
func BenchmarkCompress(b *testing.B) {
	c, err := New(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := datagen.NewCloudSeg(1, 128, 8).Batch(4)
	const hw = 128 * 128
	planes := make([]*tensor.Tensor, x.Len()/hw)
	for p := range planes {
		planes[p] = tensor.FromSlice(x.Data()[p*hw:(p+1)*hw], 128, 128)
	}
	b.SetBytes(int64(4 * x.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, plane := range planes {
			if _, err := c.Compress(plane); err != nil {
				b.Fatal(err)
			}
		}
	}
}
