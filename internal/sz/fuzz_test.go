package sz

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecompress hardens the SZ stream decoder: arbitrary bytes must
// produce an error or a reconstruction, never a panic, and the two
// decode entry points must agree. Decompress and DecompressInto accept
// exactly the same streams, and on every stream they accept they
// reconstruct the same bits — DecompressInto into a destination
// pre-filled with a marker pattern, so a cell it never writes shows.
// A NaN or ±Inf output is no failure: sz stores those verbatim.
func FuzzDecompress(f *testing.F) {
	c, err := New(1e-2)
	if err != nil {
		f.Fatal(err)
	}
	r := tensor.NewRNG(1)
	valid, err := c.Compress(r.Uniform(0, 1, 8, 8))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[10] ^= 0xFF
	f.Add(corrupt)
	special, err := c.Compress(nanInfTensor())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(special)

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := c.Decompress(data, 8, 8)
		dst := make([]float32, 64)
		for i := range dst {
			dst[i] = math.Float32frombits(0x7FC0DEAD)
		}
		errInto := c.DecompressInto(dst, data, 8, 8)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Decompress err %v, DecompressInto err %v", err, errInto)
		}
		if err != nil {
			return
		}
		for i, v := range out.Data() {
			if math.Float32bits(v) != math.Float32bits(dst[i]) {
				t.Fatalf("cell %d: Decompress %#x, DecompressInto %#x", i, math.Float32bits(v), math.Float32bits(dst[i]))
			}
		}
	})
}

// nanInfTensor is an 8×8 ramp holding NaN, ±Inf and a NaN with a
// payload, which sz must store verbatim.
func nanInfTensor() *tensor.Tensor {
	x := tensor.New(8, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(i) / 64
	}
	x.Data()[3] = float32(math.NaN())
	x.Data()[9] = float32(math.Inf(1))
	x.Data()[40] = float32(math.Inf(-1))
	x.Data()[63] = math.Float32frombits(0x7FC01234)
	return x
}

// TestNaNInfRoundTrip: non-finite cells come back bit for bit through
// both decode entry points, and their finite neighbours — predicted
// across them — still hold the bound.
func TestNaNInfRoundTrip(t *testing.T) {
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	x := nanInfTensor()
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decompress(data, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	into := make([]float32, 64)
	if err := c.DecompressInto(into, data, 8, 8); err != nil {
		t.Fatal(err)
	}
	for i, v := range x.Data() {
		for _, got := range []float32{out.Data()[i], into[i]} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				if math.Float32bits(got) != math.Float32bits(v) {
					t.Fatalf("cell %d: %#x, want %#x", i, math.Float32bits(got), math.Float32bits(v))
				}
			} else if d := math.Abs(float64(got) - float64(v)); d > 1e-2 {
				t.Fatalf("cell %d: %g, want %g within 1e-2", i, got, v)
			}
		}
	}
}

// forgePlanes returns a valid single-plane h×w stream with its plane
// count overwritten.
func forgePlanes(t testing.TB, h, w int, planes uint32) []byte {
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(tensor.NewRNG(2).Uniform(0, 1, h, w))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], planes)
	return data
}

// TestForgedPlaneCount: a 1×128×128 stream whose header claims 1+2¹⁸
// planes describes 2³²+16384 values, which a 32-bit int product wraps
// to the 16384 the destination holds. Both entry points must reject
// it instead of decoding past the code buffer.
func TestForgedPlaneCount(t *testing.T) {
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	data := forgePlanes(t, 128, 128, 1+1<<18)
	if _, err := c.Decompress(data, 128, 128); err == nil {
		t.Fatal("Decompress accepted a forged plane count")
	}
	if err := c.DecompressInto(make([]float32, 128*128), data, 128, 128); err == nil {
		t.Fatal("DecompressInto accepted a forged plane count")
	}
}

// TestForgedSectionLengths: code-stream and raw-value lengths near 2³²
// must be rejected as truncation, not wrap an int on 32-bit hosts.
func TestForgedSectionLengths(t *testing.T) {
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []int{20, 24} {
		for _, v := range []uint32{1 << 30, 1 << 31, math.MaxUint32} {
			data := forgePlanes(t, 8, 8, 1)
			binary.LittleEndian.PutUint32(data[field:], v)
			if err := c.DecompressInto(make([]float32, 64), data, 8, 8); err == nil {
				t.Fatalf("header field at byte %d = %#x accepted", field, v)
			}
		}
	}
}
