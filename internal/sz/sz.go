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
	return c.compress(x.Data(), x.Dim(-2), x.Dim(-1))
}

// EncodePlane encodes one h×w plane, stored row-major in src, as the
// stream Compress makes of it — the registry's per-plane entry point.
func (c *Codec) EncodePlane(src []float32, h, w int) ([]byte, error) {
	if h < 1 || w < 1 || len(src) != h*w {
		return nil, fmt.Errorf("sz: %d values are not one %dx%d plane", len(src), h, w)
	}
	return c.compress(src, h, w)
}

// compress encodes the len(x)/(h·w) h×w planes of x as one stream.
func (c *Codec) compress(x []float32, h, w int) ([]byte, error) {
	if h == 0 || w == 0 {
		return nil, fmt.Errorf("sz: empty plane %dx%d", h, w)
	}
	planes := len(x) / (h * w)
	qz := c.quantizer()
	// Every cell of recon is written before it is read (the predictor
	// only looks west/north/northwest), so neither buffer needs zeroing.
	codes, codesBox := getCodes(planes * h * w)
	defer codePool.Put(codesBox)
	recon, reconBox := getF32(h * w)
	defer f32Pool.Put(reconBox)
	s := qz.run(recon, x[:planes*h*w], codes, h, w)
	defer rawPool.Put(s)
	return c.appendStream(codes, s.raws, planes, h, w)
}

// RoundTripPlane compresses one h×w plane src and writes the stream's
// reconstruction into dst, bit for bit what DecompressInto makes of
// Compress's stream, returning that stream's length. It codes no vle
// stream and decodes none: the quantizer's own reconstruction is the
// decoder's, and vle is lossless, so vle.FlatLen sizes the stream from
// the codes alone. dst may be src itself, round-tripping the plane in
// place, but must not otherwise overlap it. The quantizer writes dst as
// it goes, so every geometry the stream refuses is refused first: a
// failed call leaves dst as it was.
func (c *Codec) RoundTripPlane(dst, src []float32, h, w int) (int, error) {
	if h < 1 || w < 1 || len(src) != h*w || len(dst) != h*w {
		return 0, fmt.Errorf("sz: %d values into %d are not one %dx%d plane", len(src), len(dst), h, w)
	}
	if w > vle.MaxFlatBlock {
		return 0, fmt.Errorf("sz: row of %d values is wider than a vle block (%d)", w, vle.MaxFlatBlock)
	}
	codes, codesBox := getCodes(h * w)
	defer codePool.Put(codesBox)
	s := c.quantizer().run(dst, src, codes, h, w)
	defer rawPool.Put(s)
	n, err := vle.FlatLen(codes, w)
	if err != nil {
		return 0, err
	}
	return headerLen + n + 4*len(s.raws), nil
}

// quantizer is the Lorenzo residual quantizer's per-stream constants:
// the bin width 2ε (for the bound as stored), the user's bound, the
// code radius and the code of an unpredictable cell.
type quantizer struct {
	step, bound, bins float64
	sentinel          int32
}

// quantizer returns c's quantizer. It quantizes against the bound
// exactly as the decompressor will see it (stored as float32); the
// guard in band still enforces the user's full-precision bound.
func (c *Codec) quantizer() quantizer {
	return quantizer{
		step:  2 * float64(float32(c.ErrorBound)),
		bound: c.ErrorBound,
		bins:  float64(c.Bins),
		// The unpredictable sentinel sits just past the code radius.
		sentinel: int32(c.Bins + 1),
	}
}

// bandRows is the height of the band both Lorenzo kernels run the rows
// below a plane's first in.
const bandRows = 4

// rawScratch is the quantizer's pooled working set: the stream's
// unpredictable values in cell order, and one side buffer per band row,
// where that row's unpredictable values wait until the band is done.
type rawScratch struct {
	raws []float32
	side [bandRows][]float32
}

var rawPool = sync.Pool{New: func() any { return new(rawScratch) }}

// run quantizes the len(x)/(h·w) h×w planes of x into codes, each
// plane reconstructed in turn in the one plane recon, and returns their
// unpredictable values in cell order in s.raws. Hand s back to rawPool
// once s.raws is used.
func (qz quantizer) run(recon, x []float32, codes []int32, h, w int) (s *rawScratch) {
	s = rawPool.Get().(*rawScratch)
	s.raws = s.raws[:0]
	for p := 0; p < len(x); p += h * w {
		qz.plane(recon, x[p:p+h*w], codes[p:p+h*w], w, s)
	}
	return s
}

// plane runs the Lorenzo quantizer over one plane x of width w, writing
// its codes and its reconstruction recon (the predictor reads only
// cells already written there), and appending its unpredictable values
// to s.raws in cell order. The first row runs alone, the rows below it
// in bands of bandRows (the last band holds what is left).
func (qz quantizer) plane(recon, x []float32, codes []int32, w int, s *rawScratch) {
	qz.band(recon, x, codes, 0, 1, w, s)
	for off := w; off < len(x); off += bandRows * w {
		qz.band(recon, x, codes, off, min(bandRows, (len(x)-off)/w), w, s)
	}
}

// band quantizes the band of rows rows, of width w, that starts at cell
// off. Every cell computes exactly lorenzo's float32 sum and the
// reference quantizer's rounding and guard, so the codes match a
// cell-by-cell pass, but the rows are skewed: step t does row k's
// column t−k. A cell needs its west neighbour (step t−1) and the row
// above's cells j and j−1 (steps t−1 and t−2), so no cell waits on
// another of its own step, and the band's divide → round → reconstruct
// chains overlap in the CPU. Each row's unpredictable values wait in
// its side buffer until the band is done.
//
// An unpredictable cell codes as the sentinel and reconstructs as its
// value, stored verbatim. So does a cell whose code would be −32768,
// which vle refuses as its end-of-block value. The reconstruction is
// the decoder's arithmetic to the bit: the code travels as an int32,
// so a −0 from round decodes as +0, and step·(q+0) adds +0 where
// step·q would add −0 (the sum differs only in the sign of a zero
// prediction; the code is the same either way).
func (qz quantizer) band(recon, x []float32, codes []int32, off, rows, w int, s *rawScratch) {
	for k := range rows {
		s.side[k] = s.side[k][:0]
	}
	for t := range w + rows - 1 {
		// Row k's column t−k is cell off + k·(w−1) + t.
		k := max(0, t-w+1)
		for i := off + k*(w-1) + t; k < min(rows, t+1); k, i = k+1, i+w-1 {
			pred, v := predict(recon, i, t-k, w), x[i]
			q := round((float64(v) - float64(pred)) / qz.step)
			if math.Abs(q) <= qz.bins && q != math.MinInt16 {
				// Guard against float32 rounding pushing the
				// reconstruction outside the bound.
				if r := float32(float64(pred) + float64(qz.step*(q+0))); math.Abs(float64(r)-float64(v)) <= qz.bound {
					codes[i], recon[i] = int32(q), r
					continue
				}
			}
			codes[i], recon[i] = qz.sentinel, v
			s.side[k] = append(s.side[k], v)
		}
	}
	for k := range rows {
		s.raws = append(s.raws, s.side[k]...)
	}
}

// predict is the first-order 2-D Lorenzo prediction of cell i, in
// column j of a plane of width w, from the cells already reconstructed
// in p: west + north − northwest, the north neighbour alone in column
// 0, the west one alone in the first row, and 0 for the first cell.
func predict(p []float32, i, j, w int) float32 {
	switch {
	case i >= w && j > 0:
		return p[i-1] + p[i-w] - p[i-w-1]
	case i >= w:
		return p[i-w]
	case j > 0:
		return p[i-1]
	}
	return 0
}

// round is math.Round, half away from zero, on every float64, in a
// form the compiler turns into one ROUNDSD (math.RoundToEven is an
// intrinsic, gated at run time on SSE4.1 below GOAMD64=v2) and a
// branch taken only at exact ties, where math.Round's exponent
// branches mispredict on sz's small residuals.
//
// Proof. Let t = RoundToEven(r). The two roundings differ only at a
// tie, r = k + ½ with k an integer: RoundToEven goes to the even
// neighbour, Round away from zero. d = r − t is exact: for |r| ≤ ½,
// t = ±0 and d = r; for ½ < |r| < 2⁵², t has r's sign and
// |r|/2 ≤ |t| ≤ 2|r| (|t − r| ≤ ½), so Sterbenz's lemma makes the
// subtraction exact; for |r| ≥ 2⁵², r is an integer, t = r and d = 0. So |d| = ½ exactly
// when r is a tie. There |r| < 2⁵², and r + Copysign(½, r), the
// integer next to r away from zero, is representable, so the addition
// is exact and equals Round(r). Everywhere else t = Round(r),
// the sign of a zero included (RoundToEven keeps it, as Round does).
// ±0, ±Inf and |r| ≥ 2⁵² pass through unchanged (for ±Inf, d is NaN);
// a NaN gives NaN, which band's bound check sends to the sentinel.
func round(r float64) float64 {
	t := math.RoundToEven(r)
	if d := r - t; d == 0.5 || d == -0.5 {
		t = r + math.Copysign(0.5, r)
	}
	return t
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

// DecompressInto reconstructs a Compress stream straight into dst
// (length planes·h·w as recorded in the stream header, which must also
// match the caller's expected plane geometry). It allocates no output:
// the codec registry's plane pipeline decodes into its own tensor.
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
// bit-identical to a cell-by-cell replay, but the cells go in
// quantizer.band's order: the first row alone, then bands of bandRows
// rows, skewed so that no cell waits on another of its own step. It
// returns the unread raw values.
func replayPlane(plane []float32, codes []int32, w int, eb float64, sentinel int32, raws []byte) ([]byte, error) {
	rp := replayer{plane: plane, codes: codes, w: w, step: 2 * eb, sentinel: sentinel}
	var err error
	if raws, err = rp.band(0, 1, raws); err != nil {
		return nil, err
	}
	for off := w; off < len(plane); off += bandRows * w {
		if raws, err = rp.band(off, min(bandRows, (len(plane)-off)/w), raws); err != nil {
			return nil, err
		}
	}
	return raws, nil
}

// replayer is one plane's replay: the plane, its codes, its width, the
// bin width 2·eb (the encoder's 2*eb*q groups as (2*eb)*q) and the
// unpredictable sentinel.
type replayer struct {
	plane    []float32
	codes    []int32
	w        int
	step     float64
	sentinel int32
}

var errRawsExhausted = errors.New("sz: raw-value section exhausted")

// band replays the band of rows rows that starts at cell off, as
// quantizer.band coded it, and returns the raw values left after it.
// A band row's raw values follow those of the rows above it, so the
// sentinels of every row but the last are counted first: each row then
// reads from its own cursor, its end known, and the last row reads to
// the end of the section. A full band below the first row runs its
// steady state hand-unrolled, one cell per row per step; the steps
// before and after it, and a band of fewer rows, go cell by cell.
func (rp *replayer) band(off, rows int, raws []byte) ([]byte, error) {
	w, codes := rp.w, rp.codes
	var cur, end [bandRows]int
	n := 0
	for k := range rows - 1 {
		cur[k] = n
		for _, q := range codes[off+k*w : off+(k+1)*w] {
			if q == rp.sentinel {
				n += 4
			}
		}
		end[k] = n
	}
	if n > len(raws) {
		return nil, errRawsExhausted
	}
	cur[rows-1], end[rows-1] = n, len(raws)

	// Steps bandRows ≤ t < w hold every row's column t−k in [1, w).
	steps, lo, hi := w+rows-1, w+rows-1, w+rows-1
	if rows == bandRows && w > bandRows {
		lo, hi = bandRows, w
	}
	if !rp.steps(off, rows, 0, lo, raws, &cur, &end) {
		return nil, errRawsExhausted
	}
	if lo < hi {
		step, sentinel := rp.step, rp.sentinel
		up, r0, r1, r2, r3 := rp.plane[off-w:off], rp.plane[off:off+w], rp.plane[off+w:off+2*w], rp.plane[off+2*w:off+3*w], rp.plane[off+3*w:off+4*w]
		c0, c1, c2, c3 := codes[off:off+w], codes[off+w:off+2*w], codes[off+2*w:off+3*w], codes[off+3*w:off+4*w]
		// Each row's last cell (o) and the one before it (p) ride in
		// registers: row k's west neighbour is its own last cell, its
		// north and northwest ones the row above's last two.
		o0, o1, o2, o3 := r0[lo-1], r1[lo-2], r2[lo-3], r3[lo-4]
		p0, p1, p2 := r0[lo-2], r1[lo-3], r2[lo-4]
		for t := lo; t < hi && t < len(up) && t < len(r0) && t < len(c0); t++ {
			a, b, c, d := t, t-1, t-2, t-3
			n0, ok0 := replayCell(c0[a], sentinel, o0+up[a]-up[a-1], step, raws, &cur[0], end[0])
			n1, ok1 := replayCell(c1[b], sentinel, o1+o0-p0, step, raws, &cur[1], end[1])
			n2, ok2 := replayCell(c2[c], sentinel, o2+o1-p1, step, raws, &cur[2], end[2])
			n3, ok3 := replayCell(c3[d], sentinel, o3+o2-p2, step, raws, &cur[3], end[3])
			if !(ok0 && ok1 && ok2 && ok3) {
				return nil, errRawsExhausted
			}
			r0[a], r1[b], r2[c], r3[d] = n0, n1, n2, n3
			p0, p1, p2 = o0, o1, o2
			o0, o1, o2, o3 = n0, n1, n2, n3
		}
	}
	if !rp.steps(off, rows, hi, steps, raws, &cur, &end) {
		return nil, errRawsExhausted
	}
	return raws[cur[rows-1]:], nil
}

// steps replays the band's steps t0 ≤ t < t1 cell by cell: step t does
// row k's column t−k, predicted as quantizer.band predicts it. It
// reports false when a row's raw values run out.
func (rp *replayer) steps(off, rows, t0, t1 int, raws []byte, cur, end *[bandRows]int) bool {
	w, plane := rp.w, rp.plane
	for t := t0; t < t1; t++ {
		k := max(0, t-w+1)
		for i := off + k*(w-1) + t; k < min(rows, t+1); k, i = k+1, i+w-1 {
			var ok bool
			if plane[i], ok = replayCell(rp.codes[i], rp.sentinel, predict(plane, i, t-k, w), rp.step, raws, &cur[k], end[k]); !ok {
				return false
			}
		}
	}
	return true
}

// replayCell reconstructs one cell from its code q and Lorenzo
// prediction, or, for the sentinel code, reads a verbatim float32 from
// raws at *cur, before end, and advances *cur past it. It reports false
// when no raw value is left.
func replayCell(q, sentinel int32, pred float32, step float64, raws []byte, cur *int, end int) (float32, bool) {
	if q != sentinel {
		return float32(float64(pred) + float64(step*float64(q))), true
	}
	if *cur+4 > end {
		return 0, false
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(raws[*cur:]))
	*cur += 4
	return v, true
}
