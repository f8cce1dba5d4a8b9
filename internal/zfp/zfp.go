// Package zfp implements a fixed-rate, ZFP-style lossy codec for 2-D
// float32 data, following Lindstrom's design (Fixed-Rate Compressed
// Floating-Point Arrays, TVCG 2014): 4×4 blocks, block-floating-point
// conversion to fixed point, an exactly-invertible integer wavelet
// (S-transform) decorrelation in each dimension, negabinary mapping, and
// MSB-first bit-plane coding truncated to a fixed per-block bit budget.
//
// It is the paper's CPU baseline (Fig. 9) and the "ZFP block transform"
// alternative named in the future-work section. Differences from
// reference ZFP are documented where they occur: the decorrelating
// transform is a two-level S-transform rather than ZFP's non-orthogonal
// lifted transform (ours is exactly invertible in integer arithmetic),
// and bit planes are truncated at a hard budget rather than group-coded.
// Both choices preserve the codec's defining behaviour: fixed rate
// chosen at "compile time" and graceful quality scaling with that rate.
//
// Every finite float32 codes, denormals and ±MaxFloat32 included, and
// decodes finite: a reconstruction past float32's range (a block whose
// largest value is ±MaxFloat32 can round up to 2¹²⁸) saturates at
// ±MaxFloat32. A block holding NaN or ±Inf has no block-floating-point
// form, so the encoder refuses it with ErrNonFinite before converting
// anything; no outcome is left to the platform's float→int conversion.
package zfp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitstream"
	"repro/internal/cpufeat"
)

// BlockSize is the codec's block edge (4×4 blocks, as in 2-D ZFP).
const BlockSize = 4

// blockValues is the number of values per block.
const blockValues = BlockSize * BlockSize

// expBits is the width of the per-block common-exponent header.
const expBits = 9

// precision is the fixed-point precision used inside a block.
const precision = 26

// maxPlane is the highest bit plane a transformed, negabinary-mapped
// coefficient can occupy: |q| ≤ 2^(precision−1) before the lifting, each
// of the two transform levels can add one magnitude bit, and the
// negabinary mapping one more.
const maxPlane = precision + 2

// Codec is a fixed-rate 2-D compressor. Rate is the bits-per-value
// budget; compression ratio = 32/Rate.
type Codec struct {
	// Rate is bits per value, in [1, 32].
	Rate float64
}

// New returns a codec with the given per-value bit rate.
func New(rate float64) (*Codec, error) {
	if rate < 1 || rate > 32 {
		return nil, fmt.Errorf("zfp: rate %g outside [1,32]", rate)
	}
	return &Codec{Rate: rate}, nil
}

// Ratio returns the compression ratio 32/Rate.
func (c *Codec) Ratio() float64 { return 32 / c.Rate }

// blockBits returns the fixed bit budget per block (header included).
func (c *Codec) blockBits() int {
	return int(math.Round(c.Rate * blockValues))
}

// CompressedBytes returns the fixed-rate budget of planes h×w planes:
// the most EncodePlane writes for them, a pure function of the
// geometry. A block whose bit planes run out first writes less, so a
// stream may come in under it, never over. Callers use it to
// pre-validate payloads.
func (c *Codec) CompressedBytes(planes, h, w int) int {
	blocks := planes * (h / BlockSize) * (w / BlockSize)
	return (blocks*c.blockBits() + 7) / 8
}

// ErrNonFinite refuses a plane holding a NaN or an infinity: a block's
// fixed-point conversion has no defined value for either.
var ErrNonFinite = errors.New("zfp: NaN or infinite value")

// EncodePlane writes every 4×4 block of one h×w plane (len h·w, h and w
// multiples of 4) to e, whose buffer must hold CompressedBytes(1, h, w)
// plus 8 bytes. It allocates nothing. A block holding a NaN or an
// infinity stops it with ErrNonFinite, the stream emitted so far
// unusable.
func (c *Codec) EncodePlane(e *bitstream.Emitter, plane []float32, h, w int) error {
	countPlaneCall()
	budget := c.blockBits()
	var block [blockValues]float32
	for bi := 0; bi < h; bi += BlockSize {
		for bj := 0; bj < w; bj += BlockSize {
			for i := 0; i < BlockSize; i++ {
				copy(block[i*BlockSize:(i+1)*BlockSize], plane[(bi+i)*w+bj:(bi+i)*w+bj+BlockSize])
			}
			if err := c.encodeBlock(e, &block, budget); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodePlane reads every 4×4 block of one h×w plane from br into
// plane. Like EncodePlane it allocates nothing.
func (c *Codec) DecodePlane(br *bitstream.Reader, plane []float32, h, w int) error {
	countPlaneCall()
	budget := c.blockBits()
	var block [blockValues]float32
	for bi := 0; bi < h; bi += BlockSize {
		for bj := 0; bj < w; bj += BlockSize {
			if err := c.decodeBlock(br, &block, budget); err != nil {
				return err
			}
			for i := 0; i < BlockSize; i++ {
				copy(plane[(bi+i)*w+bj:(bi+i)*w+bj+BlockSize], block[i*BlockSize:(i+1)*BlockSize])
			}
		}
	}
	return nil
}

// encodeBlock writes one 4×4 block at the fixed budget, or refuses a
// non-finite block before writing any of it.
func (c *Codec) encodeBlock(bw *bitstream.Emitter, block *[blockValues]float32, budget int) error {
	// Common exponent: largest binary exponent in the block.
	e, err := blockExponent(block)
	if err != nil {
		return err
	}
	bw.Put(uint64(e+exponentBias), expBits)
	budget -= expBits

	// Block-floating-point: scale so the largest magnitude fills the
	// fixed-point precision.
	var q [blockValues]int32
	scale := math.Ldexp(1, precision-1-e)
	for i, v := range block {
		q[i] = int32(math.Round(float64(v) * scale))
	}

	// Decorrelate rows then columns with the exactly-invertible
	// S-transform wavelet.
	for i := 0; i < BlockSize; i++ {
		fwdLift(q[i*BlockSize:], 1)
	}
	for j := 0; j < BlockSize; j++ {
		fwdLift(q[j:], BlockSize)
	}

	// Reorder by total sequency and map to negabinary so magnitude
	// ordering survives bit-plane truncation.
	var u [blockValues]uint32
	for k, src := range sequencyOrder {
		u[k] = toNegabinary(q[src])
	}

	// MSB-first embedded bit-plane coding with ZFP's group testing: the
	// first n coefficients (those significant in earlier planes) are
	// coded verbatim; the rest are coded with one group-test bit plus a
	// unary walk to each newly-significant coefficient, so all-zero
	// tails cost a single bit per plane.
	n := 0
	if cpufeat.Have().AVX2 {
		// One vectorized 16×32 bit transpose up front; each plane's mask
		// is then a single table read. Bit-identical to the SWAR path.
		var masks [32]uint16
		zfpGatherAVX2(&u, &masks)
		for plane := maxPlane; plane >= 0 && budget > 0; plane-- {
			encodePlane(bw, uint32(masks[plane]), &n, &budget)
		}
		return nil
	}
	// Portable path (and the oracle for the vector kernel): pack
	// coefficient pairs into 64-bit words so each plane gather touches 8
	// words instead of 16; `any` short-circuits planes with no set bits.
	// The extracted plane words are identical to the scalar
	// per-coefficient gather.
	var w8 [8]uint64
	var anyW uint64
	for i := 0; i < 8; i++ {
		w8[i] = uint64(u[2*i]) | uint64(u[2*i+1])<<32
		anyW |= w8[i]
	}
	any := uint32(anyW) | uint32(anyW>>32)
	for plane := maxPlane; plane >= 0 && budget > 0; plane-- {
		var x uint32
		if (any>>uint(plane))&1 != 0 {
			for i := 0; i < 8; i++ {
				y := (w8[i] >> uint(plane)) & 0x0000000100000001
				x |= uint32(y|y>>31) << uint(2*i)
			}
		}
		encodePlane(bw, x, &n, &budget)
	}
	return nil
}

// encodePlane writes one bit plane (bit k of x = coefficient k in
// sequency order) under the persistent significance count n and the
// remaining bit budget. The stream layout is the original bit-by-bit
// scheme — a verbatim section for already-significant coefficients,
// then group-test bits with unary walks to each newly-significant
// coefficient — but emitted in batched word writes: the verbatim
// section is one bit-reversed Put, and each test-bit + zero-run +
// terminator triple is a single Put sized by TrailingZeros32; no Put
// exceeds 32 bits.
func encodePlane(bw *bitstream.Emitter, x uint32, n, budget *int) {
	// Verbatim section: min(n, budget) low bits of x, coefficient 0
	// first. Bit-reversal converts the LSB-first coefficient order into
	// the MSB-first order Put emits.
	m := *n
	if m > *budget {
		m = *budget
	}
	if m > 0 {
		bw.Put(uint64(bits.Reverse32(x)>>(32-uint(m))), uint(m))
		x >>= uint(m)
		*budget -= m
	}
	k := m
	newN := *n
	for k < blockValues && *budget > 0 {
		if x == 0 {
			// Group test fails: one 0 bit retires the whole plane tail.
			bw.Put(0, 1)
			*budget--
			break
		}
		tz := bits.TrailingZeros32(x)
		if *budget >= tz+2 {
			// Test bit (1), tz zeros, and the terminating 1 in one write:
			// 1 0…0 1 over tz+2 bits.
			bw.Put(1<<(uint(tz)+1)|1, uint(tz)+2)
			*budget -= tz + 2
			x >>= uint(tz) + 1
			k += tz + 1
			newN = k
		} else {
			// Budget expires inside the run: test bit then budget−1
			// zeros, exactly where the bit-by-bit coder stopped.
			bw.Put(1<<uint(*budget-1), uint(*budget))
			*budget = 0
		}
	}
	if newN > *n {
		*n = newN
	}
}

// decodeBlock reads one block and reconstructs its values.
func (c *Codec) decodeBlock(br *bitstream.Reader, block *[blockValues]float32, budget int) error {
	eRaw, err := br.ReadBits(expBits)
	if err != nil {
		return err
	}
	e := int(eRaw) - exponentBias
	budget -= expBits

	var u [blockValues]uint32
	n := 0
	if cpufeat.Have().AVX2 {
		// Collect each plane's 16-bit mask (decodePlane can set junk
		// bits ≥ 16 on corrupt streams; the scatter — like the portable
		// unpack — reads only bits 0..15), then run one vectorized
		// inverse transpose.
		var masks [32]uint16
		for plane := maxPlane; plane >= 0 && budget > 0; plane-- {
			x, err := decodePlane(br, &n, &budget)
			if err != nil {
				return err
			}
			masks[plane] = uint16(x)
		}
		zfpScatterAVX2(&u, &masks)
	} else {
		// Portable path (and the oracle for the vector kernel): mirror
		// of the encoder's paired-word layout — bits accumulate into 8
		// uint64s (two coefficients each) and unpack once at the end;
		// empty planes skip the scatter entirely.
		var w8 [8]uint64
		for plane := maxPlane; plane >= 0 && budget > 0; plane-- {
			x, err := decodePlane(br, &n, &budget)
			if err != nil {
				return err
			}
			if x == 0 {
				continue
			}
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

	var q [blockValues]int32
	for k, src := range sequencyOrder {
		q[src] = fromNegabinary(u[k])
	}
	for j := 0; j < BlockSize; j++ {
		invLift(q[j:], BlockSize)
	}
	for i := 0; i < BlockSize; i++ {
		invLift(q[i*BlockSize:], 1)
	}
	// The fixed-point reconstruction of a block holding ±MaxFloat32 can
	// round past float32's range; it saturates at ±MaxFloat32, so a
	// finite value never decodes as ±Inf.
	scale := math.Ldexp(1, e-(precision-1))
	for i := range block {
		v := float64(q[i]) * scale
		block[i] = float32(max(-math.MaxFloat32, min(v, math.MaxFloat32)))
	}
	return nil
}

// decodePlane mirrors encodePlane exactly: same significance state,
// same budget arithmetic, so encoder and decoder consume identical bit
// counts.
func decodePlane(br *bitstream.Reader, n, budget *int) (uint32, error) {
	var x uint32
	// Verbatim section, batched: on corrupt input the significance
	// count can exceed the word width (the bit-by-bit coder silently
	// dropped shifts ≥ 32), so read in ≤32-bit chunks and let the same
	// shifts drop the same bits.
	k := 0
	m := *n
	if m > *budget {
		m = *budget
	}
	for rem := m; rem > 0; {
		step := uint(rem)
		if step > 32 {
			step = 32
		}
		v, err := br.ReadBits(step)
		if err != nil {
			return 0, err
		}
		if k < 32 {
			x |= (bits.Reverse32(uint32(v)) >> (32 - step)) << uint(k)
		}
		k += int(step)
		rem -= int(step)
	}
	*budget -= m
	newN := *n
	for k < blockValues && *budget > 0 {
		test, err := br.ReadBit()
		if err != nil {
			return 0, err
		}
		*budget--
		if test == 0 {
			break
		}
		// Unary walk to the next significant coefficient, batched: peek
		// a window, count the zero prefix with Len64, consume it whole.
		for *budget > 0 {
			w := uint(*budget)
			if w > 56 {
				w = 56
			}
			if avail := uint(br.Remaining()); avail < w {
				w = avail
			}
			if w == 0 {
				return 0, bitstream.ErrOutOfBits
			}
			p := br.Peek(w)
			if p == 0 {
				// All zeros: the run continues past this window.
				br.Consume(w)
				*budget -= int(w)
				k += int(w)
				continue
			}
			zeros := int(w) - bits.Len64(p)
			br.Consume(uint(zeros) + 1)
			*budget -= zeros + 1
			if k+zeros < 32 {
				x |= 1 << uint(k+zeros)
			}
			k += zeros + 1
			newN = k
			break
		}
	}
	if newN > *n {
		*n = newN
	}
	return x, nil
}

// exponentBias centres the stored exponent (range roughly ±254).
const exponentBias = 256

// blockExponent returns the largest binary exponent of any block value
// (frexp convention: |v| < 2^e), or ErrNonFinite for a block holding a
// NaN or an infinity.
func blockExponent(block *[blockValues]float32) (int, error) {
	maxAbs := 0.0
	for _, v := range block {
		a := math.Abs(float64(v))
		if !(a <= math.MaxFloat32) { // NaN or ±Inf
			return 0, ErrNonFinite
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return -exponentBias + 1, nil // all-zero block: smallest exponent
	}
	_, e := math.Frexp(maxAbs)
	return e, nil
}

// fwdLift applies the two-level S-transform to 4 strided values:
// level 1 pairs (v0,v1) and (v2,v3) into (sum, diff); level 2 pairs the
// two sums. All steps are exactly invertible in integer arithmetic.
func fwdLift(p []int32, stride int) {
	a, b, c, d := p[0], p[stride], p[2*stride], p[3*stride]
	s0, d0 := sFwd(a, b)
	s1, d1 := sFwd(c, d)
	s2, d2 := sFwd(s0, s1)
	// Layout: [LL, level-2 detail, level-1 details]
	p[0], p[stride], p[2*stride], p[3*stride] = s2, d2, d0, d1
}

// invLift inverts fwdLift exactly.
func invLift(p []int32, stride int) {
	s2, d2, d0, d1 := p[0], p[stride], p[2*stride], p[3*stride]
	s0, s1 := sInv(s2, d2)
	a, b := sInv(s0, d0)
	c, d := sInv(s1, d1)
	p[0], p[stride], p[2*stride], p[3*stride] = a, b, c, d
}

// sFwd is the forward S-transform: s = ⌊(a+b)/2⌋, d = a−b.
func sFwd(a, b int32) (s, d int32) {
	return (a + b) >> 1, a - b
}

// sInv inverts sFwd exactly: a = s + ⌈d/2⌉ (parity-corrected), b = a−d.
func sInv(s, d int32) (a, b int32) {
	a = s + ((d + (d & 1)) >> 1)
	return a, a - d
}

// sequencyOrder visits block cells in order of increasing total
// "frequency": the LL coefficient first, then level-2 details, then
// level-1 details — so bit-plane truncation removes the least important
// coefficients first.
var sequencyOrder = buildSequencyOrder()

func buildSequencyOrder() [blockValues]int {
	// After fwdLift the per-axis layout is [LL, L2-detail, L1-detail,
	// L1-detail] with importance weights 0,1,2,2.
	weight := [BlockSize]int{0, 1, 2, 2}
	type cell struct{ idx, w int }
	var cells []cell
	for i := 0; i < BlockSize; i++ {
		for j := 0; j < BlockSize; j++ {
			cells = append(cells, cell{i*BlockSize + j, weight[i] + weight[j]})
		}
	}
	// Stable selection sort by weight (16 items).
	var order [blockValues]int
	for k := range order {
		best := -1
		for c := range cells {
			if cells[c].idx < 0 {
				continue
			}
			if best < 0 || cells[c].w < cells[best].w {
				best = c
			}
		}
		order[k] = cells[best].idx
		cells[best].idx = -1
	}
	return order
}

// toNegabinary maps two's complement to negabinary ((-2)-base) so that
// small magnitudes have only low bits set regardless of sign — the ZFP
// trick that makes MSB-first bit planes meaningful.
func toNegabinary(v int32) uint32 {
	const mask = 0xAAAAAAAA
	u := uint32(v) + mask
	return u ^ mask
}

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint32) int32 {
	const mask = 0xAAAAAAAA
	return int32((u ^ mask) - mask)
}
