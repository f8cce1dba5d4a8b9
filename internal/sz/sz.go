// Package sz implements a compact error-bounded lossy compressor in the
// style of SZ (Di & Cappello, IPDPS 2016; §2.2 of the paper): a
// first-order 2-D Lorenzo predictor, linear-scale quantization of the
// prediction residual against a user-set absolute error bound, Huffman
// coding of the quantization codes, and verbatim storage of
// unpredictable values.
//
// It is the "error-bounded" counterpart to the fixed-rate ZFP baseline:
// the user bounds the pointwise error and the rate follows from the
// data, the opposite trade of DCT+Chop's compile-time fixed ratio —
// which is exactly why SZ-style codecs cannot run on the paper's
// accelerators (data-dependent sizes, bit-level encoding) and live here
// as a host reference.
package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/tensor"
	"repro/internal/vle"
)

// Pooled scratch: the residual coder runs per plane inside the codec
// registry's pipeline, so quantization codes, the encoder's
// reconstruction state and staging byte buffers are all recycled
// across calls.
var (
	codePool = sync.Pool{New: func() any { return new([]int32) }}
	f32Pool  = sync.Pool{New: func() any { return new([]float32) }}
	bytePool = sync.Pool{New: func() any { return new([]byte) }}
)

// getCodes returns an int32 buffer of length n with arbitrary contents
// plus its pool box (hand the box back, not the slice — re-boxing on
// Put would allocate).
func getCodes(n int) ([]int32, *[]int32) {
	bp := codePool.Get().(*[]int32)
	if cap(*bp) < n {
		*bp = make([]int32, n)
	}
	return (*bp)[:n], bp
}

// getF32 returns a float32 buffer of length n with arbitrary contents
// plus its pool box. The Lorenzo recurrences write every cell before
// reading it, so no zeroing is needed.
func getF32(n int) ([]float32, *[]float32) {
	bp := f32Pool.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	return (*bp)[:n], bp
}

// Codec is an error-bounded compressor. Every reconstructed value is
// within ErrorBound of its original (absolute error).
type Codec struct {
	// ErrorBound is the absolute pointwise bound ε.
	ErrorBound float64
	// Bins is the quantization-code radius: residuals within
	// ±Bins·2ε are predictable, the rest stored verbatim.
	Bins int
}

// New returns a codec with the given absolute error bound and the
// standard 65536-bin radius.
func New(errorBound float64) (*Codec, error) {
	if errorBound <= 0 || math.IsNaN(errorBound) || math.IsInf(errorBound, 0) {
		return nil, fmt.Errorf("sz: error bound %g must be positive and finite", errorBound)
	}
	return &Codec{ErrorBound: errorBound, Bins: 1 << 16}, nil
}

const magic = 0x535A3244 // "SZ2D"

// Compress encodes every trailing 2-D plane of x.
func (c *Codec) Compress(x *tensor.Tensor) ([]byte, error) {
	if x.Dims() < 2 {
		return nil, fmt.Errorf("sz: need at least 2-D input, got %v", x.Shape())
	}
	h, w := x.Dim(-2), x.Dim(-1)
	if h == 0 || w == 0 {
		return nil, fmt.Errorf("sz: empty plane %dx%d", h, w)
	}
	planes := x.Len() / (h * w)
	// Quantize against the bound exactly as the decompressor will see
	// it (stored as float32); the guard in cell still enforces the
	// user's full-precision bound.
	eb := float64(float32(c.ErrorBound))
	qz := quantizer{
		step:  2 * eb,
		bound: c.ErrorBound,
		bins:  float64(c.Bins),
		// The unpredictable sentinel sits just past the code radius.
		sentinel: int32(c.Bins + 1),
	}

	// Every cell of recon is written before it is read (the predictor
	// only looks west/north/northwest), so neither buffer needs zeroing.
	codes, codesBox := getCodes(planes * h * w)
	defer codePool.Put(codesBox)
	recon, reconBox := getF32(h * w)
	defer f32Pool.Put(reconBox)
	rawsBox := f32Pool.Get().(*[]float32)
	defer f32Pool.Put(rawsBox)
	sideBox := f32Pool.Get().(*[]float32)
	defer f32Pool.Put(sideBox)
	raws, side := (*rawsBox)[:0], (*sideBox)[:0]
	for p := 0; p < planes; p++ {
		span := x.Data()[p*h*w : (p+1)*h*w]
		raws, side = qz.plane(recon, span, codes[p*h*w:(p+1)*h*w], w, raws, side)
	}
	*rawsBox, *sideBox = raws, side
	return c.appendStream(codes, raws, planes, h, w)
}

// quantizer is the Lorenzo residual quantizer's per-stream constants:
// the bin width 2ε (for the bound as stored), the user's bound, the
// code radius and the code of an unpredictable cell.
type quantizer struct {
	step, bound, bins float64
	sentinel          int32
}

// cell quantizes value v against its Lorenzo prediction, returning the
// code and the reconstruction the decoder will replay, and whether the
// cell was predictable. An unpredictable cell codes as the sentinel
// and reconstructs as v itself, stored verbatim. So does a cell whose
// code would be −32768, which vle refuses as its end-of-block value.
func (qz quantizer) cell(v, pred float32) (int32, float32, bool) {
	x := float64(v)
	q := math.Round((x - float64(pred)) / qz.step)
	if math.Abs(q) <= qz.bins && q != math.MinInt16 {
		// Guard against float32 rounding pushing the reconstruction
		// outside the bound.
		if r32 := float32(float64(pred) + qz.step*q); math.Abs(float64(r32)-x) <= qz.bound {
			return int32(q), r32, true
		}
	}
	return qz.sentinel, v, false
}

// plane runs the Lorenzo quantizer over one plane x of width w, writing
// its codes and its reconstruction recon (the predictor reads only
// cells already written there), and appending its unpredictable values
// to raws in cell order. It mirrors replayPlane: every cell computes
// exactly lorenzo's float32 sum and cell's quantization, so the codes
// match a cell-by-cell pass, but the rows below the first go in pairs.
// Cell j of the lower row needs only cells j−1 and j of the upper one,
// so the two rows' divide → round → reconstruct chains overlap in the
// CPU. The lower row's raw values wait in side until the upper row is
// done. It returns raws and side's grown buffers.
func (qz quantizer) plane(recon, x []float32, codes []int32, w int, raws, side []float32) ([]float32, []float32) {
	var ok bool
	// First row: predict 0, then the west neighbour.
	row, xs, qs := recon[:w], x[:w], codes[:w]
	if qs[0], row[0], ok = qz.cell(xs[0], 0); !ok {
		raws = append(raws, xs[0])
	}
	for j := 1; j < len(row) && j < len(xs) && j < len(qs); j++ {
		if qs[j], row[j], ok = qz.cell(xs[j], row[j-1]); !ok {
			raws = append(raws, xs[j])
		}
	}
	// Row pairs a, b under row up: the first cell predicts from north,
	// the rest from west + north − northwest, carried in registers.
	off := w
	for ; off+2*w <= len(x); off += 2 * w {
		up, a, b := recon[off-w:off], recon[off:off+w], recon[off+w:off+2*w]
		xa, xb := x[off:off+w], x[off+w:off+2*w]
		qa, qb := codes[off:off+w], codes[off+w:off+2*w]
		side = side[:0]
		if qa[0], a[0], ok = qz.cell(xa[0], up[0]); !ok {
			raws = append(raws, xa[0])
		}
		if qb[0], b[0], ok = qz.cell(xb[0], a[0]); !ok {
			side = append(side, xb[0])
		}
		nw, aw, bw := up[0], a[0], b[0]
		for j := 1; j < len(up) && j < len(a) && j < len(b) && j < len(xa) && j < len(xb) && j < len(qa) && j < len(qb); j++ {
			n := up[j]
			var ra, rb float32
			if qa[j], ra, ok = qz.cell(xa[j], aw+n-nw); !ok {
				raws = append(raws, xa[j])
			}
			if qb[j], rb, ok = qz.cell(xb[j], bw+ra-aw); !ok {
				side = append(side, xb[j])
			}
			a[j], b[j] = ra, rb
			nw, aw, bw = n, ra, rb
		}
		raws = append(raws, side...)
	}
	// A last unpaired row.
	if off < len(x) {
		up, row := recon[off-w:off], recon[off:off+w]
		xs, qs := x[off:off+w], codes[off:off+w]
		if qs[0], row[0], ok = qz.cell(xs[0], up[0]); !ok {
			raws = append(raws, xs[0])
		}
		for j := 1; j < len(up) && j < len(row) && j < len(xs) && j < len(qs); j++ {
			if qs[j], row[j], ok = qz.cell(xs[j], row[j-1]+up[j]-up[j-1]); !ok {
				raws = append(raws, xs[j])
			}
		}
	}
	return raws, side
}

// appendStream codes the planes' quantization codes and frames them,
// with the raw values, as one stream.
func (c *Codec) appendStream(codes []int32, raws []float32, planes, h, w int) ([]byte, error) {
	csBox := bytePool.Get().(*[]byte)
	defer bytePool.Put(csBox)
	codeStream, err := vle.AppendFlat((*csBox)[:0], codes, w)
	if err != nil {
		return nil, err
	}
	*csBox = codeStream

	out := make([]byte, 0, 28+len(codeStream)+4*len(raws))
	out = binary.LittleEndian.AppendUint32(out, magic)
	out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(c.ErrorBound)))
	out = binary.LittleEndian.AppendUint32(out, uint32(planes))
	out = binary.LittleEndian.AppendUint32(out, uint32(h))
	out = binary.LittleEndian.AppendUint32(out, uint32(w))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(codeStream)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(raws)))
	out = append(out, codeStream...)
	for _, v := range raws {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

// headerLen is the size of a stream's fixed little-endian header:
// magic, error bound (float32), planes, h, w, code-stream length and
// raw-value count, four bytes each.
const headerLen = 28

// header is a stream's parsed fixed header, counts kept as recorded.
type header struct {
	eb                            float64
	planes, h, w, codeLen, rawLen uint32
}

// parseHeader reads a stream's fixed header and checks its magic.
func parseHeader(data []byte) (header, error) {
	if len(data) < headerLen {
		return header{}, fmt.Errorf("sz: truncated header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != magic {
		return header{}, fmt.Errorf("sz: bad magic %#x", m)
	}
	u := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	return header{
		eb:     float64(math.Float32frombits(u(4))),
		planes: u(8), h: u(12), w: u(16), codeLen: u(20), rawLen: u(24),
	}, nil
}

// holds reports whether the stream's planes·h·w cells are exactly n
// values. The product is taken in 128 bits: a forged plane count must
// not wrap it onto n, which a 32-bit int product would.
func (hd header) holds(n int) bool {
	hi, lo := bits.Mul64(uint64(hd.planes), uint64(hd.h)*uint64(hd.w))
	return hi == 0 && lo == uint64(n)
}

// StreamDims reads the plane geometry recorded in a compressed stream's
// header without decoding it — callers use it to validate a stream
// against an expected shape before allocating the output.
func StreamDims(data []byte) (planes, h, w int, err error) {
	hd, err := parseHeader(data)
	if err != nil {
		return 0, 0, 0, err
	}
	return int(hd.planes), int(hd.h), int(hd.w), nil
}

// Decompress reconstructs a tensor of the given shape.
func (c *Codec) Decompress(data []byte, shape ...int) (*tensor.Tensor, error) {
	hd, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape...)
	if out.Dims() < 2 || uint64(out.Dim(-2)) != uint64(hd.h) || uint64(out.Dim(-1)) != uint64(hd.w) || !hd.holds(out.Len()) {
		return nil, fmt.Errorf("sz: shape %v does not match stream (%d planes of %dx%d)", shape, hd.planes, hd.h, hd.w)
	}
	if err := c.decompressBody(out.Data(), data, hd); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto reconstructs a stream straight into dst (length
// planes·h·w as recorded in the stream header, which must also match
// the caller's expected plane geometry). It is the allocation-free
// counterpart of Decompress used by the codec registry's plane
// pipeline.
func (c *Codec) DecompressInto(dst []float32, data []byte, h, w int) error {
	hd, err := parseHeader(data)
	if err != nil {
		return err
	}
	if uint64(h) != uint64(hd.h) || uint64(w) != uint64(hd.w) || !hd.holds(len(dst)) {
		return fmt.Errorf("sz: stream is %d×%dx%d, want %d values of %dx%d", hd.planes, hd.h, hd.w, len(dst), h, w)
	}
	return c.decompressBody(dst, data, hd)
}

// decompressBody decodes the residual codes and replays the Lorenzo
// recurrence straight into dst, whose geometry the caller has checked
// against hd: the predictor reads the cells already reconstructed in
// dst itself, and unpredictable values come straight from the raw
// section (no staging copy of either).
func (c *Codec) decompressBody(dst []float32, data []byte, hd header) error {
	eb := hd.eb
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return fmt.Errorf("sz: invalid stored error bound %g", eb)
	}
	codeEnd := uint64(headerLen) + uint64(hd.codeLen)
	if codeEnd > uint64(len(data)) {
		return fmt.Errorf("sz: truncated code stream")
	}
	h, w := int(hd.h), int(hd.w)
	codes, codesBox := getCodes(len(dst))
	defer codePool.Put(codesBox)
	err := vle.DecodeFlatInto(codes, data[headerLen:codeEnd], w)
	if err != nil {
		return err
	}
	raws := data[codeEnd:]
	if uint64(len(raws))/4 < uint64(hd.rawLen) {
		return fmt.Errorf("sz: truncated raw-value section")
	}
	raws = raws[:4*int(hd.rawLen)]

	sentinel := int32(c.Bins + 1)
	for p := 0; p < len(dst); p += h * w {
		if raws, err = replayPlane(dst[p:p+h*w], codes[p:p+h*w], w, eb, sentinel, raws); err != nil {
			return err
		}
	}
	return nil
}

// replayPlane runs the Lorenzo recurrence over one plane's codes,
// writing each reconstructed cell to plane and reading its predictor
// back from there. Every cell computes exactly lorenzo's float32 sum
// and the encoder's float32(float64(pred) + 2*eb*q), so the output is
// bit-identical to a cell-by-cell replay, but the rows below the first
// go in pairs: cell j of the lower row needs only cell j of the upper
// one, so the two rows' dependency chains overlap in the CPU instead
// of running back to back. The lower row's raw values start after the
// upper row's, found by counting the upper row's sentinels. It returns
// the unread raw values.
func replayPlane(plane []float32, codes []int32, w int, eb float64, sentinel int32, raws []byte) ([]byte, error) {
	step := 2 * eb // the encoder's 2*eb*q groups as (2*eb)*q
	var ok bool
	// First row: predict 0, then the west neighbour.
	row, qs := plane[:w], codes[:w]
	if row[0], raws, ok = cell(qs[0], sentinel, 0, step, raws); !ok {
		return nil, errRawsExhausted
	}
	for j := 1; j < len(row); j++ {
		if row[j], raws, ok = cell(qs[j], sentinel, row[j-1], step, raws); !ok {
			return nil, errRawsExhausted
		}
	}
	// Row pairs a, b under row up: the first cell predicts from north,
	// the rest from west + north − northwest.
	off := w
	for ; off+2*w <= len(plane); off += 2 * w {
		up, a, b := plane[off-w:off], plane[off:off+w], plane[off+w:off+2*w]
		qa, qb := codes[off:off+w], codes[off+w:off+2*w]
		na := 0
		for _, q := range qa {
			if q == sentinel {
				na++
			}
		}
		if 4*na > len(raws) {
			return nil, errRawsExhausted
		}
		rb := raws[4*na:]
		// Row a's raw values were counted above, so only b's can run out.
		a[0], raws, _ = cell(qa[0], sentinel, up[0], step, raws)
		if b[0], rb, ok = cell(qb[0], sentinel, a[0], step, rb); !ok {
			return nil, errRawsExhausted
		}
		for j := 1; j < len(a) && j < len(b) && j < len(up); j++ {
			a[j], raws, _ = cell(qa[j], sentinel, a[j-1]+up[j]-up[j-1], step, raws)
			if b[j], rb, ok = cell(qb[j], sentinel, b[j-1]+a[j]-a[j-1], step, rb); !ok {
				return nil, errRawsExhausted
			}
		}
		raws = rb
	}
	// A last unpaired row.
	if off < len(plane) {
		up, row, qs := plane[off-w:off], plane[off:off+w], codes[off:off+w]
		if row[0], raws, ok = cell(qs[0], sentinel, up[0], step, raws); !ok {
			return nil, errRawsExhausted
		}
		for j := 1; j < len(row) && j < len(up); j++ {
			if row[j], raws, ok = cell(qs[j], sentinel, row[j-1]+up[j]-up[j-1], step, raws); !ok {
				return nil, errRawsExhausted
			}
		}
	}
	return raws, nil
}

// cell reconstructs one cell from its code q and Lorenzo prediction,
// popping a verbatim value off raws for the sentinel code.
func cell(q, sentinel int32, pred float32, step float64, raws []byte) (float32, []byte, bool) {
	if q != sentinel {
		return float32(float64(pred) + step*float64(q)), raws, true
	}
	return takeRaw(raws)
}

var errRawsExhausted = errors.New("sz: raw-value section exhausted")

// takeRaw pops one verbatim float32 off the raw-value section.
func takeRaw(raws []byte) (float32, []byte, bool) {
	if len(raws) < 4 {
		return 0, raws, false
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(raws)), raws[4:], true
}

// RoundTrip compresses and decompresses, returning the reconstruction
// and compressed size.
func (c *Codec) RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	data, err := c.Compress(x)
	if err != nil {
		return nil, 0, err
	}
	out, err := c.Decompress(data, x.Shape()...)
	if err != nil {
		return nil, 0, err
	}
	return out, len(data), nil
}
