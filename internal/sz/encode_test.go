package sz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/tensor"
	"repro/internal/vle"
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

// refDecompress is the cell-by-cell reference for DecompressInto, the
// decode twin of refCompress: the same header checks, the codes decoded
// by vle, then one pass over every plane in row-major order, each cell
// predicted by lorenzo and reconstructed as float32(pred + 2·eb·q), or
// read from the raw section, in order, for the sentinel code.
func refDecompress(c *Codec, dst []float32, data []byte, h, w int) error {
	hd, err := parseHeader(data)
	if err != nil {
		return err
	}
	if uint64(h) != uint64(hd.h) || uint64(w) != uint64(hd.w) || !hd.holds(len(dst)) {
		return fmt.Errorf("sz: stream is %d×%dx%d, want %d values of %dx%d", hd.planes, hd.h, hd.w, len(dst), h, w)
	}
	eb := hd.eb
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return fmt.Errorf("sz: invalid stored error bound %g", eb)
	}
	codeEnd := uint64(headerLen) + uint64(hd.codeLen)
	if codeEnd > uint64(len(data)) {
		return fmt.Errorf("sz: truncated code stream")
	}
	codes := make([]int32, len(dst))
	if err := vle.DecodeFlatInto(codes, data[headerLen:codeEnd], w); err != nil {
		return err
	}
	raws := data[codeEnd:]
	if uint64(len(raws))/4 < uint64(hd.rawLen) {
		return fmt.Errorf("sz: truncated raw-value section")
	}
	raws = raws[:4*int(hd.rawLen)]
	sentinel := int32(c.Bins + 1)
	for p := 0; p < len(dst); p += h * w {
		plane, qs := dst[p:p+h*w], codes[p:p+h*w]
		for i := 0; i < h; i++ {
			for j := 0; j < w; j++ {
				if q := qs[i*w+j]; q != sentinel {
					plane[i*w+j] = float32(float64(lorenzo(plane, i, j, w)) + 2*eb*float64(q))
					continue
				}
				if len(raws) < 4 {
					return errRawsExhausted
				}
				plane[i*w+j] = math.Float32frombits(binary.LittleEndian.Uint32(raws))
				raws = raws[4:]
			}
		}
	}
	return nil
}

// requireDecodeReference decodes data through DecompressInto and
// refDecompress: both must fail, with the same error, or both succeed
// with the same bits in every cell. The encoder codes every cell whose
// prediction is not finite as a raw value, but a stream it did not make
// can predict a cell from two NaN neighbours, and which of the two an
// addition returns is the compiler's choice of operand order: Go leaves
// the NaN an operation returns unspecified. With anyNaN, for such
// streams, a NaN matches any NaN.
func requireDecodeReference(t *testing.T, c *Codec, data []byte, h, w, n int, anyNaN bool) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	errGot, errWant := c.DecompressInto(got, data, h, w), refDecompress(c, want, data, h, w)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		t.Fatalf("%dx%d: DecompressInto err %v, reference err %v", h, w, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	for i := range got {
		if anyNaN && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%dx%d cell %d: DecompressInto %#08x, reference %#08x",
				h, w, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
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

// requireDecodeMatches compresses x and holds its decode to the
// cell-by-cell reference.
func requireDecodeMatches(t *testing.T, c *Codec, x *tensor.Tensor) {
	t.Helper()
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	requireDecodeReference(t, c, data, x.Dim(-2), x.Dim(-1), x.Len(), false)
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

// FuzzCompress holds the band quantizer to the cell-by-cell reference:
// on any field, bound and code radius, Compress must emit exactly
// refCompress's bytes — the same codes, and the raw values in the same
// cell order — its stream must decode as refDecompress decodes it, and
// RoundTripPlane must reproduce each plane's decode bit for bit and its
// stream's length.
func FuzzCompress(f *testing.F) {
	// Row 0 runs alone and the rows below it go in bands of four, so
	// heights 1–10 give (h−1) mod 4 every value: a last band of one to
	// four rows, or none. Widths 1–5 are narrower than the band's skew,
	// so its prologue and epilogue overlap and no step holds every row.
	seed := uint64(1)
	for h := 1; h <= 10; h++ {
		for _, w := range []int{1, 2, 3, 4, 5, 33} {
			f.Add(seed, uint8(1), uint8(h), uint8(w), uint8(2), uint8(0), uint8(3), []byte(nil))
			seed++
		}
	}
	f.Add(uint64(100), uint8(3), uint8(6), uint8(8), uint8(3), uint8(0), uint8(5), []byte(nil))
	// Small code radii send most residuals to the raw section.
	f.Add(uint64(101), uint8(1), uint8(6), uint8(20), uint8(4), uint8(1), uint8(6), []byte(nil))
	// NaN, NaN with a payload, ±Inf, denormals and 1e±38 in every row
	// of the first band under row 0 (rows 1–4 of a 7×16 plane), and in
	// row 0.
	const cols = 16
	var specials []byte
	vals := []float32{float32(math.NaN()), float32(math.Inf(1)), math.Float32frombits(1), 1e38, -1e-38,
		float32(math.Inf(-1)), math.Float32frombits(0x7FC01234), 1e-38, -math.Float32frombits(0x007FFFFF), -1e38}
	for i := 0; i <= 4; i++ {
		for k, v := range vals {
			specials = append(specials, patchCell(i*cols+(3*k+i)%cols, v)...)
		}
	}
	f.Add(uint64(102), uint8(1), uint8(7), uint8(cols), uint8(2), uint8(0), uint8(3), specials)
	// A 6×100 plane whose band rows hold 10, 70, 3 and 40 unpredictable
	// values, so each row's raw values start at a different offset.
	var spikes []byte
	for k, count := range []int{10, 70, 3, 40} {
		for j := 0; j < count; j++ {
			spikes = append(spikes, patchCell((1+k)*100+(j*7+k)%100, float32(1e6*(1-2*float64(j%2))))...)
		}
	}
	f.Add(uint64(103), uint8(1), uint8(6), uint8(100), uint8(5), uint8(0), uint8(3), spikes)
	// Noise well above the bound: nearly every cell is unpredictable.
	f.Add(uint64(104), uint8(2), uint8(4), uint8(90), uint8(5), uint8(0), uint8(9), []byte(nil))

	f.Fuzz(func(t *testing.T, seed uint64, planes, h, w, ebSel, binsSel, noise uint8, patch []byte) {
		planes, h, w = max(1, planes%4), max(1, h%25), max(1, w%131)
		c, err := New(math.Pow(10, -1-float64(ebSel%6)))
		if err != nil {
			t.Fatal(err)
		}
		c.Bins = []int{1 << 16, 1, 7, 255}[binsSel%4]
		x := fuzzField(seed, int(planes), int(h), int(w), noise, patch)
		requireReference(t, c, x)
		requireDecodeMatches(t, c, x)
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

// TestDecompressMatchesReference: the fields-sz record, the golden
// tensor, and planes of every height 1–10 and width 1–5 (every last
// band, and skews whose prologue and epilogue overlap) decode bit for
// bit as the cell-by-cell reference decodes them.
func TestDecompressMatchesReference(t *testing.T) {
	c, err := New(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := datagen.NewCloudSeg(1, 128, 8).Batch(4)
	requireDecodeMatches(t, c, x)
	requireDecodeMatches(t, c, goldenTensor(3, 17, 31))
	for h := 1; h <= 10; h++ {
		for w := 1; w <= 5; w++ {
			requireDecodeMatches(t, c, goldenTensor(2, h, w))
		}
	}
}

// TestRawsShortInEveryBandRow: a stream whose raw section is one value
// short of what a row needs fails with errRawsExhausted, for the first
// row and for each row of a band — the rows whose cursors are placed
// by counting the sentinels above them, and the band's last row, which
// reads to the end of the section.
func TestRawsShortInEveryBandRow(t *testing.T) {
	const h, w = 6, 9
	c, err := New(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(h, w)
	for i := 0; i < h; i++ {
		x.Data()[i*w+2+i%4] = 1e6 // a spike in every row
	}
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := parseHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	codeEnd := headerLen + int(hd.codeLen)
	codes := make([]int32, h*w)
	if err := vle.DecodeFlatInto(codes, data[headerLen:codeEnd], w); err != nil {
		t.Fatal(err)
	}
	need := 0 // raw values the rows up to and including row need
	for row := 0; row < h; row++ {
		above := need
		for _, q := range codes[row*w : (row+1)*w] {
			if q == int32(c.Bins+1) {
				need++
			}
		}
		if need == above {
			t.Fatalf("row %d holds no unpredictable value", row)
		}
		short := slices.Clone(data[:codeEnd+4*(need-1)])
		binary.LittleEndian.PutUint32(short[24:], uint32(need-1))
		if err := c.DecompressInto(make([]float32, h*w), short, h, w); !errors.Is(err, errRawsExhausted) {
			t.Fatalf("raw section short in row %d: err %v, want %v", row, err, errRawsExhausted)
		}
		requireDecodeReference(t, c, short, h, w, h*w, false)
	}
}
