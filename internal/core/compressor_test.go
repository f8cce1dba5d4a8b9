package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dct"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

func mustCompressor(t *testing.T, cfg Config, n int) *Compressor {
	t.Helper()
	c, err := NewCompressor(cfg, n)
	if err != nil {
		t.Fatalf("NewCompressor(%v, %d): %v", cfg, n, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		n   int
		ok  bool
	}{
		{Config{ChopFactor: 4, Serialization: 1}, 32, true},
		{Config{ChopFactor: 8, Serialization: 1}, 64, true},
		{Config{ChopFactor: 0, Serialization: 1}, 32, false},
		{Config{ChopFactor: 9, Serialization: 1}, 32, false},
		{Config{ChopFactor: 4, Serialization: 0}, 32, false},
		{Config{ChopFactor: 4, Serialization: 2}, 32, true},
		{Config{ChopFactor: 4, Serialization: 2}, 24, false}, // 24 % 16 != 0
		{Config{ChopFactor: 4, Serialization: 1}, 20, false}, // not /8
		{Config{ChopFactor: 4, Serialization: 1}, 0, false},
		{Config{ChopFactor: 4, Mode: Mode(9), Serialization: 1}, 32, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v, n=%d) = %v, want ok=%v", tc.cfg, tc.n, err, tc.ok)
		}
	}
}

func TestRatioFormulas(t *testing.T) {
	// Eq. 3 at the paper's CF values (legend CRs of Figs. 7-13).
	wantChop := map[int]float64{2: 16.0, 3: 64.0 / 9, 4: 4.0, 5: 2.56, 6: 64.0 / 36, 7: 64.0 / 49}
	for cf, want := range wantChop {
		got := Config{ChopFactor: cf, Serialization: 1}.Ratio()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("chop CF=%d ratio %g, want %g", cf, got, want)
		}
	}
	// SG: 64/(CF(CF+1)/2), improvement factor 2CF/(CF+1) — §3.5.2's
	// 1.33× at CF=2 to 1.75× at CF=7.
	for cf := 1; cf <= 8; cf++ {
		chop := Config{ChopFactor: cf, Serialization: 1}.Ratio()
		sg := Config{ChopFactor: cf, Mode: ModeSG, Serialization: 1}.Ratio()
		if want := sgRatioGain(cf); math.Abs(sg/chop-want) > 1e-9 {
			t.Errorf("CF=%d: SG gain %g, want %g", cf, sg/chop, want)
		}
	}
}

// sgRatioGain is the CR improvement factor of SG over plain chop at the
// same CF: 2·CF/(CF+1) (§3.5.2).
func sgRatioGain(cf int) float64 {
	return 2 * float64(cf) / float64(cf+1)
}

func TestCompressShapes(t *testing.T) {
	c := mustCompressor(t, Config{ChopFactor: 4, Serialization: 1}, 32)
	r := tensor.NewRNG(1)
	x := r.Uniform(0, 1, 5, 3, 32, 32)
	y, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	// m = CF·n/8 = 16 → payload [5,3,16,16].
	got := y.Chunks[0].Shape()
	want := []int{5, 3, 16, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("compressed shape %v, want %v", got, want)
		}
	}
	if math.Abs(y.EffectiveRatio()-4.0) > 1e-9 {
		t.Fatalf("effective ratio %g, want 4", y.EffectiveRatio())
	}
}

func TestCF8IsLossless(t *testing.T) {
	// Retaining all 64 coefficients makes DCT+Chop an orthonormal
	// change of basis: reconstruction must match to float32 precision.
	c := mustCompressor(t, Config{ChopFactor: 8, Serialization: 1}, 32)
	r := tensor.NewRNG(2)
	x := r.Uniform(-1, 1, 2, 3, 32, 32)
	back, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := back.MaxAbsDiff(x); d > 1e-4 {
		t.Fatalf("CF=8 round-trip error %g", d)
	}
}

func TestCompressionMatchesBlockwiseReference(t *testing.T) {
	// The fused two-matmul form (Eq. 4) must equal chopping each 8×8
	// block's DCT independently.
	cfg := Config{ChopFactor: 3, Serialization: 1}
	c := mustCompressor(t, cfg, 16)
	r := tensor.NewRNG(3)
	x := r.Uniform(-1, 1, 1, 1, 16, 16)
	y, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	plane := x.Index(0).Index(0)
	comp := y.Chunks[0].Index(0).Index(0)
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 2; bj++ {
			block := tensor.New(8, 8)
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					block.Set2(plane.At2(bi*8+i, bj*8+j), i, j)
				}
			}
			d := dct.Apply2D(block)
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					got := comp.At2(bi*3+i, bj*3+j)
					want := d.At2(i, j)
					if math.Abs(float64(got-want)) > 1e-4 {
						t.Fatalf("block (%d,%d) coeff (%d,%d): fused %g vs reference %g", bi, bj, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestDecompressionQualityOrdering(t *testing.T) {
	// Higher CF keeps more coefficients → PSNR must be non-decreasing in
	// CF on smooth data.
	r := tensor.NewRNG(4)
	x := smoothBatch(r, 2, 3, 32)
	prev := -math.MaxFloat64
	for cf := 1; cf <= 8; cf++ {
		c := mustCompressor(t, Config{ChopFactor: cf, Serialization: 1}, 32)
		back, err := c.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		p := metrics.PSNR(x, back)
		if p < prev-1e-6 {
			t.Fatalf("PSNR not monotone: CF=%d gives %g < %g", cf, p, prev)
		}
		prev = p
	}
}

// smoothBatch generates low-frequency image-like data for which DCT
// compaction behaves as on natural images.
func smoothBatch(r *tensor.RNG, bd, ch, n int) *tensor.Tensor {
	x := tensor.New(bd, ch, n, n)
	for b := 0; b < bd; b++ {
		for c := 0; c < ch; c++ {
			fx := 1 + r.Float64()*2
			fy := 1 + r.Float64()*2
			phase := r.Float64() * math.Pi
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := math.Sin(fx*float64(i)/float64(n)*math.Pi+phase) *
						math.Cos(fy*float64(j)/float64(n)*math.Pi)
					x.Set4(float32(v), b, c, i, j)
				}
			}
		}
	}
	return x
}

func TestPartialSerializationEquivalence(t *testing.T) {
	// §3.5.1: PS changes the working-set size, not the math. A chunked
	// compressor must reconstruct with the same fidelity as s=1 — note
	// results differ only at chunk boundaries that change block
	// alignment, so we pick n where blocks align: n=32, s=2 → chunks of
	// 16, both multiples of 8, so the 8×8 block grid is identical and
	// reconstruction must match exactly.
	r := tensor.NewRNG(5)
	x := r.Uniform(-1, 1, 2, 3, 32, 32)
	base := mustCompressor(t, Config{ChopFactor: 4, Serialization: 1}, 32)
	ps := mustCompressor(t, Config{ChopFactor: 4, Serialization: 2}, 32)
	wantOut, err := base.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := ps.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := gotOut.MaxAbsDiff(wantOut); d > 1e-4 {
		t.Fatalf("PS s=2 reconstruction deviates from s=1 by %g", d)
	}
}

func TestPartialSerializationShrinksMatrices(t *testing.T) {
	// s=2 must shrink LHS from (CF·n/8)×n to (CF·n/16)×(n/2): 4× fewer
	// elements, the memory saving that lets 512×512 compile on SN30/IPU.
	base := mustCompressor(t, Config{ChopFactor: 4, Serialization: 1}, 512)
	ps := mustCompressor(t, Config{ChopFactor: 4, Serialization: 2}, 512)
	if base.lhs.Len() != 4*ps.lhs.Len() {
		t.Fatalf("LHS elements: s=1 %d vs s=2 %d, want 4×", base.lhs.Len(), ps.lhs.Len())
	}
	if len(base.lhs.Data())*4 != 4*len(ps.lhs.Data())*4 {
		t.Fatal("byte accounting inconsistent")
	}
}

func TestPartialSerializationChunkCount(t *testing.T) {
	ps := mustCompressor(t, Config{ChopFactor: 2, Serialization: 4}, 64)
	r := tensor.NewRNG(6)
	x := r.Uniform(0, 1, 1, 1, 64, 64)
	y, err := ps.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(y.Chunks) != 16 {
		t.Fatalf("s=4 produced %d chunks, want 16", len(y.Chunks))
	}
	if math.Abs(y.EffectiveRatio()-16) > 1e-9 {
		t.Fatalf("PS ratio %g, want 16", y.EffectiveRatio())
	}
}

func TestSGPayloadSmaller(t *testing.T) {
	r := tensor.NewRNG(7)
	x := r.Uniform(-1, 1, 2, 3, 32, 32)
	for cf := 2; cf <= 7; cf++ {
		chop := mustCompressor(t, Config{ChopFactor: cf, Serialization: 1}, 32)
		sg := mustCompressor(t, Config{ChopFactor: cf, Mode: ModeSG, Serialization: 1}, 32)
		yc, err := chop.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := sg.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		gain := float64(yc.CompressedBytes()) / float64(ys.CompressedBytes())
		if math.Abs(gain-sgRatioGain(cf)) > 1e-9 {
			t.Fatalf("CF=%d: SG payload gain %g, want %g", cf, gain, sgRatioGain(cf))
		}
	}
}

func TestSGDecompressionMatchesTriangleZeroing(t *testing.T) {
	// SG must reconstruct exactly as chop-with-triangle-zeroed: gather
	// then scatter restores triangle cells and zeroes the rest of the
	// cf×cf square.
	cfg := Config{ChopFactor: 4, Mode: ModeSG, Serialization: 1}
	sg := mustCompressor(t, cfg, 16)
	chop := mustCompressor(t, Config{ChopFactor: 4, Serialization: 1}, 16)
	r := tensor.NewRNG(8)
	x := r.Uniform(-1, 1, 1, 1, 16, 16)

	ySG, err := sg.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	outSG, err := sg.Decompress(ySG)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: chop-compress, zero the non-triangle cells per block,
	// chop-decompress.
	yChop, err := chop.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	plane := yChop.Chunks[0]
	m := plane.Dim(2)
	for bi := 0; bi < m/4; bi++ {
		for bj := 0; bj < m/4; bj++ {
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if i+j >= 4 {
						plane.Set4(0, 0, 0, bi*4+i, bj*4+j)
					}
				}
			}
		}
	}
	want, err := chop.Decompress(yChop)
	if err != nil {
		t.Fatal(err)
	}
	if d := outSG.MaxAbsDiff(want); d > 1e-5 {
		t.Fatalf("SG reconstruction deviates from triangle-zero reference by %g", d)
	}
}

func TestSGLowerFidelityThanChop(t *testing.T) {
	// SG discards strictly more coefficients than chop at the same CF.
	r := tensor.NewRNG(9)
	x := smoothBatch(r, 2, 1, 32)
	for cf := 2; cf <= 7; cf++ {
		chop := mustCompressor(t, Config{ChopFactor: cf, Serialization: 1}, 32)
		sg := mustCompressor(t, Config{ChopFactor: cf, Mode: ModeSG, Serialization: 1}, 32)
		outC, err := chop.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		outS, err := sg.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		if metrics.MSE(x, outS) < metrics.MSE(x, outC)-1e-12 {
			t.Fatalf("CF=%d: SG MSE lower than chop", cf)
		}
	}
}

func TestInputValidation(t *testing.T) {
	c := mustCompressor(t, Config{ChopFactor: 4, Serialization: 1}, 32)
	r := tensor.NewRNG(10)
	if _, err := c.Compress(r.Uniform(0, 1, 2, 3, 16, 16)); err == nil {
		t.Fatal("wrong resolution must be rejected (compile-time shapes)")
	}
	if _, err := c.Compress(r.Uniform(0, 1, 32, 32)); err == nil {
		t.Fatal("non-4D input must be rejected")
	}
	y, err := c.Compress(r.Uniform(0, 1, 1, 1, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	other := mustCompressor(t, Config{ChopFactor: 5, Serialization: 1}, 32)
	if _, err := other.Decompress(y); err == nil {
		t.Fatal("config mismatch on Decompress must be rejected")
	}
}

func TestBatchAndChannelParallelism(t *testing.T) {
	// §3.2: every channel of every sample compresses independently —
	// compressing a batch must equal compressing each sample alone.
	c := mustCompressor(t, Config{ChopFactor: 5, Serialization: 1}, 16)
	r := tensor.NewRNG(11)
	x := r.Uniform(-1, 1, 4, 3, 16, 16)
	whole, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 4; b++ {
		single := tensor.New(1, 3, 16, 16)
		single.CopyFrom(x.SliceDim0(b, b+1))
		out, err := c.RoundTrip(single)
		if err != nil {
			t.Fatal(err)
		}
		if d := out.Index(0).MaxAbsDiff(whole.Index(b)); d > 1e-6 {
			t.Fatalf("sample %d differs when compressed alone: %g", b, d)
		}
	}
}

// Property: round-trip error is bounded and shrinks to zero at CF=8 for
// arbitrary data; effective ratio always matches Eq. 3.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, rawCF, rawBD uint8) bool {
		cf := int(rawCF%8) + 1
		bd := int(rawBD%3) + 1
		cfg := Config{ChopFactor: cf, Serialization: 1}
		c, err := NewCompressor(cfg, 16)
		if err != nil {
			return false
		}
		r := tensor.NewRNG(seed)
		x := r.Uniform(-1, 1, bd, 2, 16, 16)
		y, err := c.Compress(x)
		if err != nil {
			return false
		}
		if math.Abs(y.EffectiveRatio()-cfg.Ratio()) > 1e-9 {
			return false
		}
		back, err := c.Decompress(y)
		if err != nil {
			return false
		}
		if cf == 8 {
			return back.MaxAbsDiff(x) < 1e-4
		}
		// Energy argument: error norm can never exceed input norm.
		return back.Sub(x).Norm2() <= x.Norm2()+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: compression is linear (it is a pair of matmuls), so
// roundtrip(αx + βy) = α·roundtrip(x) + β·roundtrip(y).
func TestLinearityProperty(t *testing.T) {
	c, err := NewCompressor(Config{ChopFactor: 3, Serialization: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, rawA, rawB int8) bool {
		alpha := float32(rawA) / 16
		beta := float32(rawB) / 16
		r := tensor.NewRNG(seed)
		x := r.Uniform(-1, 1, 1, 1, 16, 16)
		y := r.Uniform(-1, 1, 1, 1, 16, 16)
		mix := x.Scale(alpha).Add(y.Scale(beta))
		outMix, err := c.RoundTrip(mix)
		if err != nil {
			return false
		}
		outX, err := c.RoundTrip(x)
		if err != nil {
			return false
		}
		outY, err := c.RoundTrip(y)
		if err != nil {
			return false
		}
		want := outX.Scale(alpha).Add(outY.Scale(beta))
		return outMix.MaxAbsDiff(want) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigString(t *testing.T) {
	s := Config{ChopFactor: 4, Serialization: 2}.String()
	if s == "" || s == "Mode(0)" {
		t.Fatalf("Config.String = %q", s)
	}
	if (Config{ChopFactor: 4, Mode: ModeSG, Serialization: 1}).String() == s {
		t.Fatal("distinct configs must render distinctly")
	}
}

// Property: for any valid configuration, the lowered graphs execute
// bit-identically to the host compressor — the guarantee that what a
// device runs is what the library computes.
func TestGraphHostEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, rawCF, rawMode, rawTrans, rawBD uint8) bool {
		trans := TransformKind(rawTrans % 2)
		bs := trans.BlockSizeOf()
		cf := int(rawCF)%bs + 1
		mode := Mode(rawMode % 2)
		bd := int(rawBD)%3 + 1
		n := 2 * bs * 2 // two blocks per axis, doubled for variety
		cfg := Config{ChopFactor: cf, Mode: mode, Serialization: 1, Transform: trans}
		c, err := NewCompressor(cfg, n)
		if err != nil {
			return false
		}
		r := tensor.NewRNG(seed)
		x := r.Uniform(-1, 1, bd, 2, n, n)
		want, err := c.Compress(x)
		if err != nil {
			return false
		}
		cg, err := c.BuildCompressGraph(bd, 2)
		if err != nil {
			return false
		}
		outs, err := cg.Execute(map[string]*tensor.Tensor{"A": x})
		// The graph runs the dense fused matmuls; the host compressor runs
		// the structure-aware fast kernel. Same math, different summation
		// order, so compare within the kernel's conformance tolerance.
		if err != nil || outs[0].MaxAbsDiff(want.Chunks[0]) > 1e-5 {
			return false
		}
		dg, err := c.BuildDecompressGraph(bd, 2)
		if err != nil {
			return false
		}
		back, err := dg.Execute(map[string]*tensor.Tensor{"Y": want.Chunks[0]})
		if err != nil {
			return false
		}
		hostBack, err := c.Decompress(want)
		if err != nil {
			return false
		}
		return back[0].MaxAbsDiff(hostBack) <= 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
