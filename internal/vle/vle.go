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
// The coder is two-pass and table-driven: a count pass tokenizes the
// coefficients once, histogramming the tokens and, when AppendFlat
// codes them, recording each as one word in the pooled Encoder; a
// canonical Huffman build; then an emit pass that only looks each
// recorded token's code up and writes it with its extra bits
// (bitstream.Emitter.PutTokens). FlatLen, which sizes AppendFlat's
// stream without emitting it, records no tokens. The Huffman machinery
// (the two-queue length build and the canonical code table with its
// decode LUT) is internal/entropy's, shared with the huf backend; this
// package owns the (run, category) symbol mapping, the magnitude and
// sign bits and the stream header. The decoder adds one table of its
// own, built from the canonical code per stream: an 11-bit probe that
// yields a whole (run, value, length) token, so the common short token
// costs one lookup instead of a symbol decode plus a magnitude read,
// and one refill of a register copy of the reader's window serves
// several of them. Encoder and Decoder state live in pools, and the
// entry points work on flat int32 blocks (AppendFlat / DecodeFlatInto,
// and FlatLen). AppendFlat sizes its stream with FlatLen's computation,
// grows dst once and emits straight into it, so callers with pooled
// buffers compress and decompress without allocating. The byte format
// is unchanged from the original map-and-token implementation.
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
// Huffman build scratch on fixed-size arrays, and the recorded tokens
// in a buffer it keeps, so a pooled instance encodes without allocating
// once that buffer has grown. The zero value is NOT ready; obtain
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
	// toks is the count pass's token stream, when AppendFlat asks for
	// it: one word per token, laid out as bitstream.Emitter.PutTokens
	// reads it (symbol, extra-bit count, extra bits).
	toks []uint64
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

// countBlock runs the tokenizer over one block, updating the histogram
// and writing each token to toks while it has room, and returns the
// part of toks it left unwritten. AppendFlat passes the rest of e.toks,
// sized for every token; FlatLen passes nil and records nothing. It
// refuses a block holding −32768 (errEOBValue) or a value wider than 31
// bits (errWideValue).
func countBlock[T ~int | ~int32](e *Encoder, coeffs []T, toks []uint64) ([]uint64, error) {
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
				const sym = 1 + maxRun*32
				e.freq[sym]++
				if len(toks) > 0 {
					toks[0] = sym
					toks = toks[1:]
				}
				run = 0
			}
			continue
		}
		if v == symEOB {
			return nil, errEOBValue
		}
		s, mag := signMag(v)
		cat := uint(bits.Len64(mag))
		if cat > 31 {
			return nil, errWideValue
		}
		sym := 1 + run*32 + int(cat)
		e.freq[sym]++
		if len(toks) > 0 {
			toks[0] = uint64(sym) | uint64(cat+1)<<bitstream.TokenSymBits | (mag|s<<cat)<<bitstream.TokenExtra
			toks = toks[1:]
		}
		run = 0
	}
	e.freq[0]++ // EOB
	if len(toks) > 0 {
		toks[0] = 0
		toks = toks[1:]
	}
	return toks, nil
}

// signMag splits a nonzero value into its sign bit (1 for a negative
// value) and its magnitude without a branch on the sign, which sz's ±
// residuals mispredict. The magnitude's bit length is the value's
// category; its extra bits are the magnitude with the sign bit set just
// above it.
func signMag(v int64) (sign, mag uint64) {
	s := v >> 63
	return uint64(s & 1), uint64((v ^ s) - s)
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
// the block geometry, counts every block's tokens, recording them when
// record is set, and builds the canonical code, on a pooled Encoder the
// caller hands back to encoderPool.
func prepare(coeffs []int32, blockSize int, record bool) (*Encoder, error) {
	if blockSize < 1 || blockSize > MaxFlatBlock {
		return nil, fmt.Errorf("vle: block size %d outside [1, %d]", blockSize, MaxFlatBlock)
	}
	if len(coeffs) == 0 || len(coeffs)%blockSize != 0 {
		return nil, fmt.Errorf("vle: flat buffer of %d values is not a whole, nonzero number of %d-value blocks", len(coeffs), blockSize)
	}
	e := encoderPool.Get().(*Encoder)
	e.reset()
	var toks []uint64
	if record {
		// A block is at most one token per value plus its EOB.
		toks = slices.Grow(e.toks[:0], len(coeffs)+len(coeffs)/blockSize)
		toks = toks[:cap(toks)]
	}
	rest := toks
	for off := 0; off < len(coeffs); off += blockSize {
		var err error
		if rest, err = countBlock(e, coeffs[off:off+blockSize], rest); err != nil {
			encoderPool.Put(e)
			return nil, err
		}
	}
	e.toks = toks[:len(toks)-len(rest)]
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
// dst. Its count pass tokenizes the blocks once, keeping the tokens in
// the pooled Encoder; it then sizes the stream, grows dst once and
// emits the tokens straight into it, so callers with capacity-managed
// buffers run allocation-free. dst's capacity past the stream holds 8
// bytes of emitter scratch.
func AppendFlat(dst []byte, coeffs []int32, blockSize int) ([]byte, error) {
	e, err := prepare(coeffs, blockSize, true)
	if err != nil {
		return nil, err
	}
	defer encoderPool.Put(e)
	n, start := e.flatLen(), len(dst)
	dst = slices.Grow(dst, n+8)
	w := bitstream.NewEmitter(dst[start : start+n+8])
	e.writeHeader(&w, len(coeffs)/blockSize, blockSize)
	w.PutTokens(e.toks, e.code.Enc[:])
	return dst[:start+w.Len()], nil
}

// FlatLen is len(AppendFlat(nil, coeffs, blockSize)), with the same
// errors, computed without coding the stream or recording its tokens.
func FlatLen(coeffs []int32, blockSize int) (int, error) {
	e, err := prepare(coeffs, blockSize, false)
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

// decodeBlockInto decodes one block's tokens from r, which reads data,
// into dst, writing every value: zeros go only into the gaps the runs
// leave and into the block's tail. Fused-table tokens are served from a
// local copy of the reader's window, several per refill: a refill tops
// the window up only once fewer than fastBits bits are left. A token the
// table does not hold, or that the stream's remaining bits cannot cover,
// takes the symbol-then-magnitude path through code.ReadSym and
// ReadBits, which also report truncation and invalid codes.
func (d *Decoder) decodeBlockInto(r *bitstream.Reader, data []byte, dst []int32) error {
	pos := 0 // dst[:pos] is written, unless a pure run overflowed it
	for {
		acc, n, off := r.Window()
		for {
			if n < fastBits {
				acc, n, off = bitstream.Refill(data, acc, n, off)
			}
			e := d.fast[acc>>(64-fastBits)]
			l := uint(e & 15)
			if l == 0 || l > n {
				break
			}
			acc <<= l
			n -= l
			end := pos + int(e>>8&0xFF)
			if e&fastKind != fastValue {
				if e&fastKind == fastEOB {
					r.SetWindow(acc, n, off)
					clear(dst[min(pos, len(dst)):])
					return nil
				}
				pos = zeroRun(dst, pos, end)
				continue
			}
			if uint(end) >= uint(len(dst)) { // end only grows from 0
				return errRunOverflow(end, len(dst))
			}
			pos = zeroGap(dst, pos, end)
			dst[pos] = int32(int16(e >> 16))
			pos++
		}
		r.SetWindow(acc, n, off)
		sym, err := d.code.ReadSym(r)
		if err != nil {
			return err
		}
		if sym == 0 {
			clear(dst[min(pos, len(dst)):])
			return nil // EOB
		}
		run := (sym - 1) / 32
		cat := (sym - 1) % 32
		end := pos + run
		if cat == 0 {
			pos = zeroRun(dst, pos, end) // pure run extension
			continue
		}
		raw, err := r.ReadBits(uint(cat) + 1)
		if err != nil {
			return err
		}
		if end >= len(dst) {
			return errRunOverflow(end, len(dst))
		}
		v := int32(raw & ((1 << uint(cat)) - 1))
		if raw&(1<<uint(cat)) != 0 {
			v = -v
		}
		pos = zeroGap(dst, pos, end)
		dst[pos] = v
		pos++
	}
}

// zeroGap writes the zeros of a run from pos to end < len(dst) and
// returns end. A gap of at most 16 values is cleared with one 16-value
// store, which may write zeros past end, into cells no token has
// reached yet: the later tokens overwrite them, and the block's tail
// is cleared at its EOB.
func zeroGap(dst []int32, pos, end int) int {
	if end == pos {
		return end
	}
	if end-pos <= 16 && pos+16 <= len(dst) {
		*(*[16]int32)(dst[pos:]) = [16]int32{}
		return end
	}
	for ; pos < end; pos++ {
		dst[pos] = 0
	}
	return end
}

// zeroRun writes the zeros of a pure run from pos to end, as far as the
// block dst reaches, and returns end: a pure run may overflow the block
// and still be closed by EOB.
func zeroRun(dst []int32, pos, end int) int {
	for ; pos < end && pos < len(dst); pos++ {
		dst[pos] = 0
	}
	return end
}

// errRunOverflow reports a token whose run puts its value at pos, past
// a block of n values.
func errRunOverflow(pos, n int) error {
	return fmt.Errorf("vle: run overflows block (%d ≥ %d)", pos, n)
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
	for off := 0; off < len(dst); off += blockSize {
		if err := d.decodeBlockInto(r, data, dst[off:off+blockSize]); err != nil {
			return err
		}
	}
	return nil
}
