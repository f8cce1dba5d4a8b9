package zfp

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// portableGather is the SWAR plane extraction, lifted verbatim from the
// portable encode path, as the oracle for zfpGatherAVX2.
func portableGather(u *[blockValues]uint32, masks *[32]uint16) {
	var w8 [8]uint64
	for i := 0; i < 8; i++ {
		w8[i] = uint64(u[2*i]) | uint64(u[2*i+1])<<32
	}
	for plane := 0; plane < 32; plane++ {
		var x uint32
		for i := 0; i < 8; i++ {
			y := (w8[i] >> uint(plane)) & 0x0000000100000001
			x |= uint32(y|y>>31) << uint(2*i)
		}
		masks[plane] = uint16(x)
	}
}

// portableScatter mirrors the portable decode accumulation.
func portableScatter(u *[blockValues]uint32, masks *[32]uint16) {
	var w8 [8]uint64
	for plane := 0; plane < 32; plane++ {
		x := uint32(masks[plane])
		for i := 0; i < 8; i++ {
			y := uint64(x>>uint(2*i))&1 | (uint64(x>>uint(2*i+1))&1)<<32
			w8[i] |= y << uint(plane)
		}
	}
	for i := 0; i < 8; i++ {
		u[2*i] = uint32(w8[i])
		u[2*i+1] = uint32(w8[i] >> 32)
	}
}

// TestTransposeSIMDEquivalence checks the vector gather/scatter against
// the SWAR oracle bit-for-bit on random and adversarial coefficient
// patterns.
func TestTransposeSIMDEquivalence(t *testing.T) {
	if !cpufeat.Have().AVX2 {
		t.Skip("no SIMD kernels on this platform")
	}
	r := rand.New(rand.NewSource(13))
	patterns := []uint32{0, 0xFFFFFFFF, 0x80000000, 1, 0xAAAAAAAA, 0x55555555}
	for trial := 0; trial < 2000; trial++ {
		var u [blockValues]uint32
		for i := range u {
			if trial < len(patterns) {
				u[i] = patterns[trial]
			} else {
				u[i] = r.Uint32()
			}
		}
		var want, got [32]uint16
		portableGather(&u, &want)
		zfpGatherAVX2(&u, &got)
		if want != got {
			t.Fatalf("gather trial %d: u=%08x\nwant %04x\ngot  %04x", trial, u, want, got)
		}
		var back, backSIMD [blockValues]uint32
		portableScatter(&back, &want)
		zfpScatterAVX2(&backSIMD, &want)
		if back != backSIMD {
			t.Fatalf("scatter trial %d: masks=%04x\nwant %08x\ngot  %08x", trial, want, back, backSIMD)
		}
		if back != u {
			t.Fatalf("transpose not involutive at trial %d", trial)
		}
	}
}

// TestCodecSIMDEquivalence checks that full streams and reconstructions
// are byte- and bit-identical across modes, including adversarial
// finite values, and that both modes refuse non-finite ones.
func TestCodecSIMDEquivalence(t *testing.T) {
	if !cpufeat.Have().AVX2 {
		t.Skip("no SIMD kernels on this platform")
	}
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	r := rand.New(rand.NewSource(17))
	// Trial 3 codes the finite specials; trial 4 adds NaN and ±Inf,
	// which both modes refuse alike.
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1e38,
		math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
	}
	nonFinite := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, rate := range []float64{1, 4, 8, 16, 32} {
		c, err := New(rate)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			x := tensor.New(32, 16)
			d := x.Data()
			for i := range d {
				if trial >= 3 && r.Intn(3) == 0 {
					d[i] = specials[r.Intn(len(specials))]
				} else {
					d[i] = float32(r.NormFloat64() * 100)
				}
			}
			if trial == 4 {
				for _, v := range nonFinite {
					d[r.Intn(len(d))] = v
				}
			}
			cpufeat.SetSIMD(false)
			encP, errP := encode(c, x)
			cpufeat.SetSIMD(true)
			encS, errS := encode(c, x)
			if trial == 4 {
				if !errors.Is(errP, ErrNonFinite) || !errors.Is(errS, ErrNonFinite) {
					t.Fatalf("rate=%g: NaN and ±Inf gave %v (portable) and %v (simd), want %v", rate, errP, errS, ErrNonFinite)
				}
				continue
			}
			if errP != nil || errS != nil {
				t.Fatalf("rate=%g trial=%d: %v (portable), %v (simd)", rate, trial, errP, errS)
			}
			if !bytes.Equal(encP, encS) {
				t.Fatalf("rate=%g trial=%d: streams differ", rate, trial)
			}
			cpufeat.SetSIMD(false)
			outP, err := decode(c, encP, 32, 16)
			if err != nil {
				t.Fatal(err)
			}
			cpufeat.SetSIMD(true)
			outS, err := decode(c, encP, 32, 16)
			if err != nil {
				t.Fatal(err)
			}
			dp, ds := outP.Data(), outS.Data()
			for i := range dp {
				if math.Float32bits(dp[i]) != math.Float32bits(ds[i]) {
					t.Fatalf("rate=%g trial=%d: reconstruction %d differs: %08x vs %08x",
						rate, trial, i, math.Float32bits(dp[i]), math.Float32bits(ds[i]))
				}
			}
		}
	}
}

// TestZfpSIMDAllocs verifies the pooled plane paths stay allocation-free
// in both modes.
func TestZfpSIMDAllocs(t *testing.T) {
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(19))
	plane := make([]float32, 32*32)
	for i := range plane {
		plane[i] = float32(r.NormFloat64())
	}
	out := make([]float32, 32*32)
	buf := make([]byte, c.CompressedBytes(1, 32, 32)+8)
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	for _, mode := range []bool{false, true} {
		cpufeat.SetSIMD(mode)
		if mode && !cpufeat.Have().AVX2 {
			continue
		}
		allocs := testing.AllocsPerRun(10, func() {
			bw := bitstream.NewEmitter(buf)
			if err := c.EncodePlane(&bw, plane, 32, 32); err != nil {
				t.Fatal(err)
			}
			br := bitstream.NewReader(buf[:bw.Len()])
			if err := c.DecodePlane(br, out, 32, 32); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("simd=%v: plane round trip allocated %v times per run", mode, allocs)
		}
	}
}
