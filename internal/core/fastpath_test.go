package core

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// fastPathConfigs enumerates every configuration class the fast kernel
// must reproduce: all chop factors of both transforms, both retention
// modes, and serialization factors 1, 2 and 4.
func fastPathConfigs() []Config {
	var cfgs []Config
	for _, tr := range []TransformKind{TransformDCT8, TransformZFP4} {
		bs := tr.BlockSizeOf()
		for cf := 1; cf <= bs; cf++ {
			for _, mode := range []Mode{ModeChop, ModeSG} {
				for _, s := range []int{1, 2, 4} {
					cfgs = append(cfgs, Config{ChopFactor: cf, Mode: mode, Serialization: s, Transform: tr})
				}
			}
		}
	}
	return cfgs
}

// TestFastPathMatchesDense is the equivalence suite of the fast-kernel
// execution path: for every cf/s/sg/transform combination, the payload
// produced by Compress and the reconstruction produced by Decompress
// must match the dense-matmul reference oracle to ≤1e-5 max abs error.
func TestFastPathMatchesDense(t *testing.T) {
	const n, bd, ch = 32, 2, 3
	r := tensor.NewRNG(17)
	x := r.Uniform(-1, 1, bd, ch, n, n)
	for _, cfg := range fastPathConfigs() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			c, err := NewCompressor(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.CompressDense(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Chunks) != len(want.Chunks) {
				t.Fatalf("fast path produced %d chunks, dense %d", len(got.Chunks), len(want.Chunks))
			}
			for i := range got.Chunks {
				if !got.Chunks[i].SameShape(want.Chunks[i]) {
					t.Fatalf("chunk %d shape %v, dense %v", i, got.Chunks[i].Shape(), want.Chunks[i].Shape())
				}
				if d := got.Chunks[i].MaxAbsDiff(want.Chunks[i]); d > 1e-5 {
					t.Fatalf("chunk %d payload diverges from dense: max abs diff %g", i, d)
				}
			}

			wantBack, err := c.DecompressDense(want)
			if err != nil {
				t.Fatal(err)
			}
			gotBack, err := c.Decompress(got)
			if err != nil {
				t.Fatal(err)
			}
			if d := gotBack.MaxAbsDiff(wantBack); d > 1e-5 {
				t.Fatalf("reconstruction diverges from dense: max abs diff %g", d)
			}

			// The decompressors must also agree on each other's payloads
			// (the container format does not record which path wrote it).
			crossBack, err := c.Decompress(want)
			if err != nil {
				t.Fatal(err)
			}
			if d := crossBack.MaxAbsDiff(wantBack); d > 1e-5 {
				t.Fatalf("fast decompress of dense payload diverges: max abs diff %g", d)
			}
		})
	}
}

// TestRoundTripIntoMatchesRoundTrip checks the pooled, allocation-free
// entry point returns the same reconstruction as the allocating one.
func TestRoundTripIntoMatchesRoundTrip(t *testing.T) {
	const n = 32
	r := tensor.NewRNG(5)
	x := r.Uniform(0, 1, 2, 3, n, n)
	for _, cfg := range []Config{
		{ChopFactor: 4, Serialization: 1},
		{ChopFactor: 3, Mode: ModeSG, Serialization: 2},
	} {
		c, err := NewCompressor(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		dst := tensor.New(2, 3, n, n)
		// Run twice so the second pass reuses pooled state.
		for pass := 0; pass < 2; pass++ {
			if err := c.RoundTripInto(dst, x); err != nil {
				t.Fatal(err)
			}
			if !dst.Equal(want) {
				t.Fatalf("pass %d: RoundTripInto differs from RoundTrip", pass)
			}
		}
	}
}

// TestCompressIntoReshapesDst verifies a payload compiled for one batch
// shape is re-shaped (not corrupted) when reused for another.
func TestCompressIntoReshapesDst(t *testing.T) {
	const n = 16
	c, err := NewCompressor(Config{ChopFactor: 4, Serialization: 2}, n)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(3)
	dst := &Compressed{}
	for _, bd := range []int{1, 3, 2} {
		x := r.Uniform(0, 1, bd, 2, n, n)
		if err := c.CompressInto(dst, x); err != nil {
			t.Fatal(err)
		}
		if dst.BatchSize != bd || dst.Channels != 2 {
			t.Fatalf("dst dims %dx%d after bd=%d", dst.BatchSize, dst.Channels, bd)
		}
		back, err := c.Decompress(dst)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.RoundTripDense(x)
		if err != nil {
			t.Fatal(err)
		}
		if d := back.MaxAbsDiff(want); d > 1e-5 {
			t.Fatalf("bd=%d: reshaped payload round trip diverges (max %g)", bd, d)
		}
	}
}

// TestIntoPathZeroAllocs is the allocation regression suite: after
// warm-up, CompressInto, DecompressInto and RoundTripInto must not
// allocate at all — the guarantee every steady-state training loop
// inherits.
func TestIntoPathZeroAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{ChopFactor: 4, Serialization: 1},
		{ChopFactor: 4, Serialization: 2},
		{ChopFactor: 4, Mode: ModeSG, Serialization: 1},
		{ChopFactor: 2, Mode: ModeSG, Serialization: 2, Transform: TransformZFP4},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			for _, n := range []int{32, 64} {
				c, err := NewCompressor(cfg, n)
				if err != nil {
					t.Fatal(err)
				}
				r := tensor.NewRNG(11)
				x := r.Uniform(0, 1, 2, 3, n, n)
				dst := c.NewCompressed(2, 3)
				out := tensor.New(2, 3, n, n)
				// Warm up pools and chunk buffers.
				if err := c.CompressInto(dst, x); err != nil {
					t.Fatal(err)
				}
				if err := c.DecompressInto(out, dst); err != nil {
					t.Fatal(err)
				}
				if err := c.RoundTripInto(out, x); err != nil {
					t.Fatal(err)
				}
				if allocs := testing.AllocsPerRun(50, func() {
					if err := c.CompressInto(dst, x); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("n=%d: CompressInto allocates %.1f objects/op, want 0", n, allocs)
				}
				if allocs := testing.AllocsPerRun(50, func() {
					if err := c.DecompressInto(out, dst); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("n=%d: DecompressInto allocates %.1f objects/op, want 0", n, allocs)
				}
				if raceEnabled {
					continue
				}
				if allocs := testing.AllocsPerRun(50, func() {
					if err := c.RoundTripInto(out, x); err != nil {
						t.Fatal(err)
					}
				}); allocs != 0 {
					t.Errorf("n=%d: RoundTripInto allocates %.1f objects/op, want 0", n, allocs)
				}
			}
		})
	}
}

// TestDecompressIntoValidates pins the error paths: wrong destination
// shape and short payload chunks must fail before any kernel work.
func TestDecompressIntoValidates(t *testing.T) {
	const n = 16
	c, err := NewCompressor(Config{ChopFactor: 4, Serialization: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(2)
	x := r.Uniform(0, 1, 1, 1, n, n)
	y, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DecompressInto(tensor.New(1, 1, n, 2*n), y); err == nil {
		t.Error("mis-shaped destination accepted")
	}
	y.Chunks[0] = tensor.New(1, 1, 2, 2)
	if err := c.DecompressInto(tensor.New(1, 1, n, n), y); err == nil {
		t.Error("short payload chunk accepted")
	}
}

func ExampleCompressor_CompressInto() {
	c, _ := NewCompressor(Config{ChopFactor: 4, Serialization: 1}, 16)
	x := tensor.New(1, 1, 16, 16)
	dst := c.NewCompressed(1, 1)
	_ = c.CompressInto(dst, x)
	fmt.Println(dst.Chunks[0].Shape())
	// Output: [1 1 8 8]
}
