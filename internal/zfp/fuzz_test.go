package zfp

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecompress hardens the bit-plane decoder against arbitrary
// streams: DecodePlane on an 8×8 plane must produce finite floats or an
// error, never panic.
func FuzzDecompress(f *testing.F) {
	c, err := New(8)
	if err != nil {
		f.Fatal(err)
	}
	r := tensor.NewRNG(1)
	valid, err := encode(c, r.Uniform(-1, 1, 8, 8))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := decode(c, data, 8, 8)
		if err != nil {
			return
		}
		for _, v := range out.Data() {
			if math.IsNaN(float64(v)) {
				t.Fatal("NaN from arbitrary stream")
			}
		}
	})
}

// FuzzRoundTripError: for any finite inputs, the codec's reconstruction
// error stays bounded relative to the block's dominant magnitude.
func FuzzRoundTripError(f *testing.F) {
	f.Add(uint64(1), float64(1))
	f.Add(uint64(2), float64(1e6))
	f.Add(uint64(3), float64(1e-6))
	f.Fuzz(func(t *testing.T, seed uint64, scale float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || scale == 0 {
			return
		}
		if a := math.Abs(scale); a > 1e30 || a < 1e-30 {
			return
		}
		c, err := New(16)
		if err != nil {
			t.Fatal(err)
		}
		r := tensor.NewRNG(seed)
		x := r.Uniform(-1, 1, 4, 4)
		x.ScaleInPlace(float32(scale))
		out, _ := roundTrip(t, c, x)
		bound := float64(x.MaxAbs()) * 0.02
		if d := out.MaxAbsDiff(x); d > bound+1e-30 {
			t.Fatalf("error %g exceeds bound %g at scale %g", d, bound, scale)
		}
	})
}
