// Package vle implements the variable-length encoding stage that JPEG
// applies after quantization — zigzag traversal, run-length encoding of
// zero runs, and canonical Huffman coding — as a host-side reference.
//
// It exists to quantify the design constraint at the heart of the paper
// (§3.1, §3.2): VLE produces data-dependent sizes and needs the bit
// operations the AI accelerators' PyTorch backends lack, so DCT+Chop
// trades the extra compression VLE would buy for fixed compile-time
// shapes and two matmuls. The ablation bench compares chop, triangle
// (SG) and zigzag+RLE+Huffman retention on the same coefficient data.
//
// The coder is two-pass and table-driven: a histogram pass over the
// coefficients, a canonical Huffman build, then an emit pass — no token
// stream is ever materialised. The Huffman machinery (the two-queue
// length build and the canonical code table with its decode LUT) is
// internal/entropy's, shared with the huf backend; this package owns
// the (run, category) symbol mapping, the magnitude and sign bits and
// the stream header. The decoder adds one table of its own, built from
// the canonical code per stream: an 11-bit probe that yields a whole
// (run, value, length) token, so the common short token costs one
// lookup instead of a symbol decode plus a magnitude read. Encoder and
// Decoder state live in pools, and the entry points work on flat int32
// blocks (AppendFlat / DecodeFlatInto, and FlatLen, which sizes
// AppendFlat's stream without emitting it). AppendFlat sizes its stream
// with FlatLen's computation, grows dst once and emits straight into it
// through a bitstream.Emitter, so callers with pooled buffers compress
// and decompress without allocating. The byte format is unchanged from
// the original map-and-token implementation.
package vle

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/entropy"
)

// Symbol kinds in the RLE stream. Values are encoded as (run, value)
// pairs; EOB terminates a block when only zeros remain. The Huffman
// symbol is 0 for EOB, else 1 + run·32 + category, where the category
// is the magnitude's bit length (0 for a pure maxRun-zero run); the
// category+1 raw bits that follow hold the magnitude with the sign bit
// above it.
const (
	symEOB = -32768 // end-of-block marker in the symbol alphabet
	// maxRun caps zero-run length per symbol (longer runs split).
	maxRun = 15
)

// maxSymbol bounds the alphabet: runs ≤ 15, categories ≤ 31. The
// encoder refuses wider values, so it never counts a symbol past it.
const maxSymbol = 1 + 15*32 + 31

// alphabetSize is the symbol space's size.
const alphabetSize = maxSymbol + 1

// MaxFlatBlock is the largest block size the header's 16-bit field
// holds.
const MaxFlatBlock = 1<<16 - 1

// maxCodeLen is the longest admissible Huffman code.
const maxCodeLen = 32

// Encoder holds the histogram, code lengths, canonical code table and
// Huffman build scratch on fixed-size arrays so a pooled instance
// encodes without allocating. The zero value is NOT ready; obtain
// instances through the package functions, which pool them.
type Encoder struct {
	freq [alphabetSize]int64
	lens [alphabetSize]uint8
	code entropy.CanonTable
	// Huffman build scratch: present symbols keyed weight<<10 | symbol,
	// so sorting the keys gives the (weight, symbol) leaf order, then
	// the two-queue node weights and depths.
	keys  [alphabetSize]uint64
	w     [2 * alphabetSize]int64
	depth [2 * alphabetSize]uint16
}

var encoderPool = sync.Pool{New: func() any { return &Encoder{} }}

func (e *Encoder) reset() {
	clear(e.freq[:])
	clear(e.lens[:])
}

// errEOBValue refuses the value −32768: the historical encoder coded it
// as the end-of-block marker, so it decoded as an early block end and
// every later block one block late.
var errEOBValue = fmt.Errorf("vle: value %d collides with the end-of-block marker", symEOB)

// errWideValue refuses a nonzero value whose magnitude is wider than
// 31 bits: its category, 32 and up, would make its symbol another
// token's (math.MinInt32 after r zeros codes as a pure run of
// r+1), so it would decode as something else.
var errWideValue = errors.New("vle: value outside ±(2³¹−1)")

// countBlock runs the tokenizer over one block, updating the histogram.
// It refuses a block holding −32768 (errEOBValue) or a value wider than
// 31 bits (errWideValue).
func countBlock[T ~int | ~int32](e *Encoder, coeffs []T) error {
	last := len(coeffs) - 1
	for last >= 0 && coeffs[last] == 0 {
		last--
	}
	run := 0
	for i := 0; i <= last; i++ {
		v := int64(coeffs[i])
		if v == 0 {
			run++
			if run == maxRun {
				e.freq[1+maxRun*32]++
				run = 0
			}
			continue
		}
		if v == symEOB {
			return errEOBValue
		}
		_, cat := signMag(v)
		if cat > 31 {
			return errWideValue
		}
		e.freq[1+run*32+int(cat)]++
		run = 0
	}
	e.freq[0]++ // EOB
	return nil
}

// signMag splits a nonzero value into its sign-and-magnitude extra
// bits (the magnitude, with the sign bit set just above it for a
// negative value) and its category, the magnitude's bit length —
// without a branch on the sign, which sz's ± residuals mispredict.
func signMag(v int64) (extra uint64, cat uint) {
	s := v >> 63
	mag := uint64((v ^ s) - s)
	cat = uint(bits.Len64(mag))
	return mag | uint64(s&1)<<cat, cat
}

// emitBlock re-runs the tokenizer over one block countBlock accepted,
// emitting codes.
func emitBlock[T ~int | ~int32](e *Encoder, w *bitstream.Emitter, coeffs []T) {
	last := len(coeffs) - 1
	for last >= 0 && coeffs[last] == 0 {
		last--
	}
	run := 0
	for i := 0; i <= last; i++ {
		v := int64(coeffs[i])
		if v == 0 {
			run++
			if run == maxRun {
				sym := 1 + maxRun*32
				w.Put(e.code.Enc[sym]>>8, uint(e.lens[sym]))
				run = 0
			}
			continue
		}
		extra, cat := signMag(v)
		sym := 1 + run*32 + int(cat)
		// Code and extra bits in one Put when they fit.
		l := uint(e.lens[sym])
		if l+cat+1 <= 56 {
			w.Put(e.code.Enc[sym]>>8<<(cat+1)|extra, l+cat+1)
		} else {
			w.Put(e.code.Enc[sym]>>8, l)
			w.Put(extra, cat+1)
		}
		run = 0
	}
	w.Put(e.code.Enc[0]>>8, uint(e.lens[0])) // EOB
}

// build turns the histogram into canonical code tables: the shared
// two-queue build over leaves sorted by (weight, symbol), a lone symbol
// promoted to one bit, lengths past 32 bits rejected.
func (e *Encoder) build() error {
	n := 0
	for sym, f := range e.freq {
		if f > 0 {
			e.keys[n] = uint64(f)<<10 | uint64(sym)
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("vle: empty alphabet")
	}
	slices.Sort(e.keys[:n])
	for i, k := range e.keys[:n] {
		e.w[i] = int64(k >> 10)
	}
	entropy.HuffmanDepths(n, e.w[:], e.depth[:])
	for i, k := range e.keys[:n] {
		d := max(e.depth[i], 1)
		if d > maxCodeLen {
			return fmt.Errorf("vle: bad code length %d for symbol %d", d, k&1023)
		}
		e.lens[k&1023] = uint8(d)
	}
	return e.code.Build(e.lens[:])
}

// writeHeader persists block count, block size and the code lengths,
// each symbol and its 6-bit length as one 22-bit value.
func (e *Encoder) writeHeader(w *bitstream.Emitter, nblocks, size int) {
	w.Put(uint64(nblocks), 32)
	w.Put(uint64(size), 16)
	syms := e.code.Symbols()
	w.Put(uint64(len(syms)), 16)
	for _, sym := range syms {
		w.Put(uint64(sym)<<6|uint64(e.lens[sym]), 22)
	}
}

// prepare is AppendFlat's and FlatLen's shared first pass: it checks
// the block geometry, counts every block's tokens and builds the
// canonical code, on a pooled Encoder the caller hands back to
// encoderPool.
func prepare(coeffs []int32, blockSize int) (*Encoder, error) {
	if blockSize < 1 || blockSize > MaxFlatBlock {
		return nil, fmt.Errorf("vle: block size %d outside [1, %d]", blockSize, MaxFlatBlock)
	}
	if len(coeffs) == 0 || len(coeffs)%blockSize != 0 {
		return nil, fmt.Errorf("vle: flat buffer of %d values is not a whole, nonzero number of %d-value blocks", len(coeffs), blockSize)
	}
	e := encoderPool.Get().(*Encoder)
	e.reset()
	for off := 0; off < len(coeffs); off += blockSize {
		if err := countBlock(e, coeffs[off:off+blockSize]); err != nil {
			encoderPool.Put(e)
			return nil, err
		}
	}
	if err := e.build(); err != nil {
		encoderPool.Put(e)
		return nil, err
	}
	return e, nil
}

// flatLen is the length of the stream the prepared code gives, computed
// without coding it: the header's 64 bits and 22 per present symbol,
// then each symbol's count times its code length plus, for a value
// symbol, its category+1 magnitude and sign bits, rounded up to whole
// bytes.
func (e *Encoder) flatLen() int {
	nbits := uint64(64)
	for sym, f := range e.freq {
		if f == 0 {
			continue
		}
		n := 22 + uint64(f)*uint64(e.lens[sym])
		if cat := (sym - 1) % 32; sym != 0 && cat != 0 {
			n += uint64(f) * uint64(cat+1)
		}
		nbits += n
	}
	return int((nbits + 7) / 8)
}

// AppendFlat compresses len(coeffs)/blockSize equal-size blocks stored
// back to back in a flat int32 buffer, appending the encoded stream to
// dst. It sizes the stream first, grows dst once and emits straight
// into it, so callers with capacity-managed buffers run
// allocation-free. dst's capacity past the stream holds 8 bytes of
// emitter scratch.
func AppendFlat(dst []byte, coeffs []int32, blockSize int) ([]byte, error) {
	e, err := prepare(coeffs, blockSize)
	if err != nil {
		return nil, err
	}
	defer encoderPool.Put(e)
	n, start := e.flatLen(), len(dst)
	dst = slices.Grow(dst, n+8)
	w := bitstream.NewEmitter(dst[start : start+n+8])
	e.writeHeader(&w, len(coeffs)/blockSize, blockSize)
	for off := 0; off < len(coeffs); off += blockSize {
		emitBlock(e, &w, coeffs[off:off+blockSize])
	}
	return dst[:start+w.Len()], nil
}

// FlatLen is len(AppendFlat(nil, coeffs, blockSize)), with the same
// errors, computed without coding the stream.
func FlatLen(coeffs []int32, blockSize int) (int, error) {
	e, err := prepare(coeffs, blockSize)
	if err != nil {
		return 0, err
	}
	defer encoderPool.Put(e)
	return e.flatLen(), nil
}

// Decoder holds the canonical decode tables rebuilt per stream; pooled
// so steady-state decoding is allocation-free.
type Decoder struct {
	lens [maxSymbol + 1]uint8
	code entropy.CanonTable
	// fast maps the next fastBits bits of the stream to one whole token
	// when they hold it: a symbol's code and, for a value symbol, its
	// magnitude and sign bits too. Entry layout, low to high: 4 bits of
	// total length (0 = no entry, decode through code.ReadSym), 2 bits
	// of kind, 8 bits of zero run, 16 bits of the signed value.
	fast [1 << fastBits]uint32
}

// The fused decode table's probe width and entry kinds.
const (
	fastBits  = 11
	fastValue = 0 << 4
	fastEOB   = 1 << 4
	fastRun   = 2 << 4 // a pure zero run (category 0)
	fastKind  = 3 << 4
)

var decoderPool = sync.Pool{New: func() any { return &Decoder{} }}

// readHeader parses the stream header and builds the decode tables.
func (d *Decoder) readHeader(r *bitstream.Reader) (nblocks, size int, err error) {
	nb, err := r.ReadBits(32)
	if err != nil {
		return 0, 0, err
	}
	sz, err := r.ReadBits(16)
	if err != nil {
		return 0, 0, err
	}
	nsym, err := r.ReadBits(16)
	if err != nil {
		return 0, 0, err
	}
	clear(d.lens[:])
	for i := 0; i < int(nsym); i++ {
		sym, err := r.ReadBits(16)
		if err != nil {
			return 0, 0, err
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return 0, 0, err
		}
		if sym > maxSymbol {
			return 0, 0, fmt.Errorf("vle: symbol %d outside alphabet", sym)
		}
		if l == 0 || l > maxCodeLen {
			return 0, 0, fmt.Errorf("vle: bad code length %d for symbol %d", l, sym)
		}
		d.lens[sym] = uint8(l)
	}
	if err := d.code.Build(d.lens[:]); err != nil {
		return 0, 0, err
	}
	d.buildFast()
	return int(nb), int(sz), nil
}

// buildFast fills the fused table from the canonical code. Codes of at
// most fastBits bits own consecutive spans from index 0 in canonical
// order. EOB and pure-run symbols fill their span with one entry; a
// value symbol whose code, magnitude and sign fit in fastBits splits
// its span by those extra bits, one entry per value. Everything else —
// longer codes, wider values, unused code space — stays 0.
func (d *Decoder) buildFast() {
	end := uint32(0)
	for _, sym := range d.code.Symbols() {
		enc := d.code.Enc[sym]
		l := uint32(enc & 0xFF)
		if l > fastBits {
			break
		}
		span := uint32(1) << (fastBits - l)
		next := end + span
		run, cat := (uint32(sym)-1)/32, (uint32(sym)-1)%32
		switch {
		case sym == 0:
			fillFast(d.fast[end:next], l|fastEOB)
		case cat == 0:
			fillFast(d.fast[end:next], l|fastRun|run<<8)
		case l+cat+1 <= fastBits:
			n := l + cat + 1
			step := uint32(1) << (fastBits - n)
			for x := uint32(0); x < 1<<(cat+1); x++ {
				v := int16(x & (1<<cat - 1))
				if x>>cat != 0 {
					v = -v
				}
				fillFast(d.fast[end+x*step:end+(x+1)*step], n|fastValue|run<<8|uint32(uint16(v))<<16)
			}
		default:
			fillFast(d.fast[end:next], 0)
		}
		end = next
	}
	fillFast(d.fast[end:], 0)
}

func fillFast(dst []uint32, v uint32) {
	for i := range dst {
		dst[i] = v
	}
}

// decodeBlockInto decodes one block's tokens into dst (pre-zeroed).
// Each token costs one refill and one fused-table probe; a token the
// table does not hold, or that the stream's remaining bits cannot
// cover, takes the symbol-then-magnitude path through code.ReadSym,
// which also reports truncation and invalid codes.
func (d *Decoder) decodeBlockInto(r *bitstream.Reader, dst []int32) error {
	pos := 0
	for {
		r.Fill()
		e := d.fast[r.PeekBuffered(fastBits)]
		if l := uint(e & 15); l != 0 && l <= r.Buffered() {
			r.ConsumeBuffered(l)
			pos += int(e >> 8 & 0xFF)
			switch e & fastKind {
			case fastEOB:
				return nil
			case fastRun:
				continue
			}
			if uint(pos) >= uint(len(dst)) { // pos only grows from 0
				return fmt.Errorf("vle: run overflows block (%d ≥ %d)", pos, len(dst))
			}
			dst[pos] = int32(int16(e >> 16))
			pos++
			continue
		}
		sym, err := d.code.ReadSym(r)
		if err != nil {
			return err
		}
		if sym == 0 {
			return nil // EOB
		}
		run := (sym - 1) / 32
		cat := (sym - 1) % 32
		pos += run
		if cat == 0 {
			continue // pure run extension
		}
		raw, err := r.ReadBits(uint(cat) + 1)
		if err != nil {
			return err
		}
		if pos >= len(dst) {
			return fmt.Errorf("vle: run overflows block (%d ≥ %d)", pos, len(dst))
		}
		v := int32(raw & ((1 << uint(cat)) - 1))
		if raw&(1<<uint(cat)) != 0 {
			v = -v
		}
		dst[pos] = v
		pos++
	}
}

// DecodeFlatInto decodes a stream produced by AppendFlat
// into dst, which must hold exactly nblocks·blockSize elements matching
// the stream header. It allocates nothing.
func DecodeFlatInto(dst []int32, data []byte, blockSize int) error {
	d := decoderPool.Get().(*Decoder)
	defer decoderPool.Put(d)
	r := bitstream.NewReader(data)
	nblocks, size, err := d.readHeader(r)
	if err != nil {
		return err
	}
	if size != blockSize {
		return fmt.Errorf("vle: stream block size %d, want %d", size, blockSize)
	}
	if nblocks < 1 || uint64(nblocks)*uint64(blockSize) != uint64(len(dst)) {
		return fmt.Errorf("vle: stream holds %d×%d values, want %d", nblocks, size, len(dst))
	}
	for i := range dst {
		dst[i] = 0
	}
	for off := 0; off < len(dst); off += blockSize {
		if err := d.decodeBlockInto(r, dst[off:off+blockSize]); err != nil {
			return err
		}
	}
	return nil
}
