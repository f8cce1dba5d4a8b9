package sz

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
)

// streamDims reads the plane geometry recorded in a stream's header.
func streamDims(data []byte) (planes, h, w int, err error) {
	hd, err := parseHeader(data)
	if err != nil {
		return 0, 0, 0, err
	}
	return int(hd.planes), int(hd.h), int(hd.w), nil
}

// FuzzDecompress hardens the SZ stream decoder: arbitrary bytes, decoded
// by DecompressInto at the geometry streamDims reads from their header,
// must produce an error or a reconstruction, never a panic. A decode
// that succeeds must write every cell: it runs twice, into destinations
// pre-filled with two different marker patterns, and both must hold the
// same bits, which are the cell-by-cell reference decoder's (a NaN that
// arithmetic on NaN neighbours makes matching any NaN); a decode that
// fails must fail as the reference does. A NaN or ±Inf output is no
// failure: sz stores those verbatim.
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
	// A stream the encoder cannot make: row 3, column 3 of a 5×6 plane,
	// in the band's unrolled steady state, is predicted from raw NaNs
	// of opposite sign to its north and west.
	codes := make([]int32, 5*6)
	codes[2*6+3], codes[3*6+2] = int32(c.Bins+1), int32(c.Bins+1)
	nans, err := c.appendStream(codes, []float32{math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000)}, 1, 5, 6)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nans)

	f.Fuzz(func(t *testing.T, data []byte) {
		planes, h, w, err := streamDims(data)
		if err != nil {
			return
		}
		// Header counts are untrusted: decode only geometries a test
		// can afford to allocate.
		if planes < 1 || h < 1 || w < 1 || uint64(planes)*uint64(h)*uint64(w) > 1<<16 {
			return
		}
		n := planes * h * w
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i] = math.Float32frombits(0x7FC0DEAD)
			b[i] = math.Float32frombits(0xFFC0BEEF)
		}
		errA := c.DecompressInto(a, data, h, w)
		errB := c.DecompressInto(b, data, h, w)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("decodes disagree: %v, then %v", errA, errB)
		}
		requireDecodeReference(t, c, data, h, w, n, true)
		if errA != nil {
			return
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				t.Fatalf("cell %d: %#x over one marker, %#x over the other", i, math.Float32bits(a[i]), math.Float32bits(b[i]))
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

// TestNaNInfRoundTrip: non-finite cells come back bit for bit, and
// their finite neighbours — predicted across them — still hold the
// bound.
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
	out := make([]float32, 64)
	if err := c.DecompressInto(out, data, 8, 8); err != nil {
		t.Fatal(err)
	}
	for i, v := range x.Data() {
		got := out[i]
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			if math.Float32bits(got) != math.Float32bits(v) {
				t.Fatalf("cell %d: %#x, want %#x", i, math.Float32bits(got), math.Float32bits(v))
			}
		} else if d := math.Abs(float64(got) - float64(v)); d > 1e-2 {
			t.Fatalf("cell %d: %g, want %g within 1e-2", i, got, v)
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
// to the 16384 the destination holds. DecompressInto must reject it
// instead of decoding past the code buffer.
func TestForgedPlaneCount(t *testing.T) {
	c, err := New(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	data := forgePlanes(t, 128, 128, 1+1<<18)
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
