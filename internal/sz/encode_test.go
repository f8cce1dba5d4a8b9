package sz

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

// refCompress is the cell-by-cell reference for Compress: one pass
// over every plane in row-major order, each cell predicted by lorenzo
// and quantized in place, its raw value appended as it is met (a code
// of −32768, vle's end-of-block value, goes raw too). It frames the
// result through the same appendStream.
func refCompress(c *Codec, x *tensor.Tensor) ([]byte, error) {
	h, w := x.Dim(-2), x.Dim(-1)
	planes := x.Len() / (h * w)
	sentinel := c.Bins + 1
	eb := float64(float32(c.ErrorBound))
	codes := make([]int32, planes*h*w)
	recon := make([]float32, h*w)
	var raws []float32
	for p := 0; p < planes; p++ {
		plane := x.Data()[p*h*w : (p+1)*h*w]
		for i := 0; i < h; i++ {
			row := codes[(p*h+i)*w : (p*h+i+1)*w]
			for j := 0; j < w; j++ {
				pred := lorenzo(recon, i, j, w)
				v := float64(plane[i*w+j])
				q := math.Round((v - float64(pred)) / (2 * eb))
				if math.Abs(q) <= float64(c.Bins) && q != math.MinInt16 {
					rec := float64(pred) + 2*eb*q
					if r32 := float32(rec); math.Abs(float64(r32)-v) <= c.ErrorBound {
						row[j] = int32(q)
						recon[i*w+j] = r32
						continue
					}
				}
				row[j] = int32(sentinel)
				raws = append(raws, plane[i*w+j])
				recon[i*w+j] = plane[i*w+j]
			}
		}
	}
	return c.appendStream(codes, raws, planes, h, w)
}

// lorenzo is the first-order 2-D Lorenzo predictor over the
// reconstructed plane: west + north − northwest, degrading gracefully at
// the plane borders.
func lorenzo(recon []float32, i, j, w int) float32 {
	switch {
	case i == 0 && j == 0:
		return 0
	case i == 0:
		return recon[j-1]
	case j == 0:
		return recon[(i-1)*w]
	default:
		return recon[i*w+j-1] + recon[(i-1)*w+j] - recon[(i-1)*w+j-1]
	}
}

// requireReference compresses x through Compress and refCompress and
// requires the same bytes, and a decode that holds the bound: every
// value within ErrorBound of its original, or bit for bit the same
// (NaN and the infinities are stored verbatim).
func requireReference(t *testing.T, c *Codec, x *tensor.Tensor) {
	t.Helper()
	got, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refCompress(c, x)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shape %v, eb %g, bins %d: Compress differs from the cell-by-cell reference (len %d vs %d)",
			x.Shape(), c.ErrorBound, c.Bins, len(got), len(want))
	}
	out := make([]float32, x.Len())
	if err := c.DecompressInto(out, got, x.Dim(-2), x.Dim(-1)); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		u := x.Data()[i]
		if math.Float32bits(u) != math.Float32bits(v) && !(math.Abs(float64(v)-float64(u)) <= c.ErrorBound) {
			t.Fatalf("shape %v, eb %g, bins %d: cell %d decodes to %g from %g, past the bound",
				x.Shape(), c.ErrorBound, c.Bins, i, v, u)
		}
	}
}

// requireRoundTripPlane round-trips every plane of x through
// RoundTripPlane, into a second buffer and in place, and requires the
// bits DecompressInto makes of that plane's Compress stream and that
// stream's length; EncodePlane must emit the same stream.
func requireRoundTripPlane(t *testing.T, c *Codec, x *tensor.Tensor) {
	t.Helper()
	h, w := x.Dim(-2), x.Dim(-1)
	for p := 0; p < x.Len()/(h*w); p++ {
		src := x.Data()[p*h*w : (p+1)*h*w]
		data, err := c.Compress(tensor.FromSlice(src, h, w))
		if err != nil {
			t.Fatal(err)
		}
		if enc, err := c.EncodePlane(src, h, w); err != nil || !bytes.Equal(enc, data) {
			t.Fatalf("plane %d: EncodePlane differs from Compress (err %v)", p, err)
		}
		want := make([]float32, h*w)
		if err := c.DecompressInto(want, data, h, w); err != nil {
			t.Fatal(err)
		}
		inPlace := slices.Clone(src)
		for _, io := range []struct{ dst, src []float32 }{{make([]float32, h*w), src}, {inPlace, inPlace}} {
			n, err := c.RoundTripPlane(io.dst, io.src, h, w)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(data) {
				t.Fatalf("shape %v, eb %g, bins %d, plane %d: RoundTripPlane size %d, stream %d bytes",
					x.Shape(), c.ErrorBound, c.Bins, p, n, len(data))
			}
			for i, v := range want {
				if math.Float32bits(io.dst[i]) != math.Float32bits(v) {
					t.Fatalf("shape %v, eb %g, bins %d, plane %d cell %d: RoundTripPlane %#08x, DecompressInto %#08x",
						x.Shape(), c.ErrorBound, c.Bins, p, i, math.Float32bits(io.dst[i]), math.Float32bits(v))
				}
			}
		}
	}
}

// fuzzField builds planes of h×w cells: a smooth wave from seed plus
// uniform noise of amplitude 10^(noise%10−8), then patch applied as
// 6-byte groups of (little-endian uint16 cell index mod n, float32
// bits), so the fuzzer can plant NaN payloads, infinities, denormals
// or huge values anywhere.
func fuzzField(seed uint64, planes, h, w int, noise uint8, patch []byte) *tensor.Tensor {
	rng := tensor.NewRNG(seed)
	fx, fy := 1+rng.Float64(), 1+rng.Float64()
	amp := math.Pow(10, float64(noise%10)-8)
	x := tensor.New(planes, h, w)
	d := x.Data()
	for i := range d {
		r, c := float64(i/w%h), float64(i%w)
		d[i] = float32(math.Sin(fx*r/7)*math.Cos(fy*c/5) + amp*(2*rng.Float64()-1))
	}
	for ; len(patch) >= 6; patch = patch[6:] {
		d[int(binary.LittleEndian.Uint16(patch))%len(d)] = math.Float32frombits(binary.LittleEndian.Uint32(patch[2:]))
	}
	return x
}

// patchCell encodes one fuzzField patch group.
func patchCell(idx int, v float32) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(idx))
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// FuzzCompress holds the two-row quantizer to the cell-by-cell
// reference: on any field, bound and code radius, Compress must emit
// exactly refCompress's bytes — the same codes, and the raw values in
// the same cell order — and RoundTripPlane must reproduce each plane's
// decode bit for bit and its stream's length.
func FuzzCompress(f *testing.F) {
	// Row 0 runs alone and the rows below it go in pairs, so an even
	// height leaves the last row unpaired and an odd one pairs every
	// row; 1×1, 1×w and h×1 planes have no pair, or pairs of one cell.
	f.Add(uint64(1), uint8(1), uint8(7), uint8(33), uint8(2), uint8(0), uint8(3), []byte(nil))
	f.Add(uint64(2), uint8(3), uint8(6), uint8(8), uint8(3), uint8(0), uint8(5), []byte(nil))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(1), uint8(2), uint8(0), uint8(3), []byte(nil))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(50), uint8(2), uint8(0), uint8(3), []byte(nil))
	f.Add(uint64(5), uint8(2), uint8(9), uint8(1), uint8(2), uint8(0), uint8(3), []byte(nil))
	f.Add(uint64(6), uint8(2), uint8(2), uint8(1), uint8(2), uint8(0), uint8(3), []byte(nil))
	// Small code radii send most residuals to the raw section.
	f.Add(uint64(7), uint8(1), uint8(6), uint8(20), uint8(4), uint8(1), uint8(6), []byte(nil))
	// NaN, NaN with a payload, ±Inf, denormals and 1e±38 in both rows
	// of the pair under row 0 (rows 1 and 2 of a 5×16 plane).
	const cols = 16
	var specials []byte
	for _, pc := range []struct {
		i, j int
		v    float32
	}{
		{1, 2, float32(math.NaN())}, {1, 5, float32(math.Inf(1))}, {1, 7, math.Float32frombits(1)},
		{1, 9, 1e38}, {1, 11, -1e-38}, {1, 13, float32(math.Inf(-1))},
		{2, 2, float32(math.Inf(-1))}, {2, 3, math.Float32frombits(0x7FC01234)}, {2, 5, 1e-38},
		{2, 6, -math.Float32frombits(0x007FFFFF)}, {2, 9, -1e38}, {2, 14, 1e38},
	} {
		specials = append(specials, patchCell(pc.i*cols+pc.j, pc.v)...)
	}
	f.Add(uint64(8), uint8(1), uint8(5), uint8(cols), uint8(2), uint8(0), uint8(3), specials)
	// A 3×100 plane whose lower pair row holds 70 unpredictable values
	// while its upper row holds a few.
	var spikes []byte
	for j := 0; j < 70; j++ {
		spikes = append(spikes, patchCell(2*100+j+j/3, float32(1e6*(1-2*float64(j%2))))...)
	}
	spikes = append(spikes, patchCell(100+10, 1e5)...)
	spikes = append(spikes, patchCell(100+60, -1e5)...)
	f.Add(uint64(9), uint8(1), uint8(3), uint8(100), uint8(5), uint8(0), uint8(3), spikes)
	// Noise well above the bound: nearly every cell is unpredictable.
	f.Add(uint64(10), uint8(2), uint8(4), uint8(90), uint8(5), uint8(0), uint8(9), []byte(nil))

	f.Fuzz(func(t *testing.T, seed uint64, planes, h, w, ebSel, binsSel, noise uint8, patch []byte) {
		planes, h, w = max(1, planes%4), max(1, h%25), max(1, w%131)
		c, err := New(math.Pow(10, -1-float64(ebSel%6)))
		if err != nil {
			t.Fatal(err)
		}
		c.Bins = []int{1 << 16, 1, 7, 255}[binsSel%4]
		x := fuzzField(seed, int(planes), int(h), int(w), noise, patch)
		requireReference(t, c, x)
		requireRoundTripPlane(t, c, x)
	})
}

// TestCompressMatchesReference: the fields-sz workload's own data, a
// [4,8,128,128] CloudSeg record, and the golden tensor compress to the
// reference's bytes.
func TestCompressMatchesReference(t *testing.T) {
	c, err := New(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := datagen.NewCloudSeg(1, 128, 8).Batch(4)
	requireReference(t, c, x)
	requireRoundTripPlane(t, c, x)
	requireReference(t, c, goldenTensor(3, 17, 31))
	requireRoundTripPlane(t, c, goldenTensor(3, 17, 31))
}
