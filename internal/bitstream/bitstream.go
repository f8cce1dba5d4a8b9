// Package bitstream provides MSB-first bit-level I/O for the ZFP-style
// fixed-rate codec and the host-side variable-length encoders. These are
// exactly the bit-shift/bit-mask operations the paper's accelerators
// cannot express from PyTorch (§3.1) — which is why they live here, on
// the host, and never inside a device graph.
//
// Both ends run on a 64-bit accumulator: the Emitter packs bits into a
// word and stores eight bytes at a time into a buffer its caller sized
// for the whole stream, and the Reader refills a word and serves
// Peek/Consume out of it, so the per-bit inner loops of the bit-plane
// and Huffman coders touch memory once per word instead of once per
// byte. Every encoder sizes its stream before it emits it and writes it
// once, straight into the buffer the stream is returned in. Tight loops
// keep the state in registers: Emitter.PutTokens writes a whole
// table-coded token stream that way, the entropy package's huf coder
// (hufEmitStream) runs the same arithmetic unrolled four codes at a
// time, and a decode loop takes a Reader's Window, advances it with
// Refill and shifts, and hands it back. The byte stream produced is
// identical, bit for bit, to the original byte-at-a-time
// implementation.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Emitter writes bits MSB-first into a caller-sized buffer. buf must
// hold the whole stream plus 8 bytes of slack: every Put stores a whole
// 8-byte word at pos, so an undersized buffer fails the bounds check
// rather than writing past it. The bytes past Len are scratch.
type Emitter struct {
	buf []byte
	pos int    // bytes complete
	acc uint64 // pending bits, left-aligned (top n bits valid)
	n   uint   // number of pending bits in acc, < 8 between calls
}

// NewEmitter returns an Emitter writing from buf[0].
func NewEmitter(buf []byte) Emitter { return Emitter{buf: buf} }

// Put appends the k ≤ 56 bits of v < 1<<k, most significant first.
// k = 0 (with v = 0) writes nothing.
func (e *Emitter) Put(v uint64, k uint) {
	e.n += k
	e.acc |= v << ((64 - e.n) & 63)
	binary.BigEndian.PutUint64(e.buf[e.pos:], e.acc)
	e.pos += int(e.n >> 3)
	e.acc <<= e.n & 56
	e.n &= 7
}

// The token layout PutTokens reads: a symbol in the low TokenSymBits
// bits, the count of its extra bits (0 to 32) in the next six, and the
// extra bits from TokenExtra up.
const (
	TokenSymBits = 10
	TokenExtra   = 16
)

// PutTokens is Put's register form for a table-coded token stream: for
// each token it appends its symbol's code from codes, which holds
// code<<8 | length per symbol (lengths ≤ 32), then the token's extra
// bits. It keeps the accumulator in registers for the whole stream,
// where a loop of Puts loads and stores it through the Emitter on every
// call; the bytes are the Puts'.
func (e *Emitter) PutTokens(toks, codes []uint64) {
	buf, pos, acc, n := e.buf, e.pos, e.acc, e.n
	for _, t := range toks {
		c, k := codes[t&(1<<TokenSymBits-1)], uint(t>>TokenSymBits&63)
		v, l := c>>8<<k|t>>TokenExtra, uint(c&0xFF)+k
		if l > 56 { // the code, then the extra bits, each at most 32
			pos, acc, n = putWord(buf, pos, acc, n, c>>8, uint(c&0xFF))
			v, l = t>>TokenExtra, k
		}
		pos, acc, n = putWord(buf, pos, acc, n, v, l)
	}
	e.pos, e.acc, e.n = pos, acc, n
}

// putWord is Put on an Emitter's fields held in registers.
func putWord(buf []byte, pos int, acc uint64, n uint, v uint64, k uint) (int, uint64, uint) {
	n += k
	acc |= v << ((64 - n) & 63)
	binary.BigEndian.PutUint64(buf[pos:], acc)
	pos += int(n >> 3)
	acc <<= n & 56
	return pos, acc, n & 7
}

// Len returns the stream's length in bytes so far, the final partial
// byte included: its unwritten low bits are already stored as zeros.
func (e *Emitter) Len() int { return e.pos + int(e.n+7)>>3 }

// Reader consumes bits MSB-first from a byte slice.
//
// Three usage styles are supported and may be mixed:
//
//   - ReadBits/ReadBit: strict, error-checked. An over-read
//     returns ErrOutOfBits without consuming anything.
//   - Peek/Consume: the table-driven decode style. Peek returns the
//     next bits zero-padded past the end of the stream; Consume
//     advances unconditionally and sets a sticky Overread flag when it
//     runs past the end. Check Overread once per decoded run instead
//     of per bit.
//   - Window/Refill/SetWindow: the register-resident fast path. A
//     decode loop takes the reader's state with Window, tops it up with
//     one Refill per symbol or per few symbols, shifts symbols out of
//     the accumulator with no end-of-stream check, and hands the state
//     back with SetWindow; within 8 bytes of the end it falls back to
//     the strict or Peek/Consume style.
type Reader struct {
	buf []byte
	off int // next unread byte offset in buf
	// acc holds the unread bits left-aligned: the top n are valid, the
	// rest are either zero or a copy of the stream bits that follow
	// (Refill's word load leaves part of buf[off] there), so refill can
	// OR the next bytes in either way.
	acc  uint64
	n    uint // number of valid bits in acc
	over bool // a Consume ran past the end of the stream
}

// NewReader wraps buf for reading.
func NewReader(buf []byte) *Reader {
	r := &Reader{}
	r.Reset(buf)
	return r
}

// Reset re-points the reader at buf, clearing all state. It allows a
// stack- or struct-embedded Reader to be reused without allocation.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.acc = 0
	r.n = 0
	r.over = false
	r.refill()
}

// ErrOutOfBits reports an over-read.
var ErrOutOfBits = errors.New("bitstream: read past end of stream")

// refill tops the accumulator up to at least 57 valid bits, or to the
// end of the stream, whichever comes first.
func (r *Reader) refill() {
	if r.n == 0 && r.off+8 <= len(r.buf) {
		r.acc = binary.BigEndian.Uint64(r.buf[r.off:])
		r.off += 8
		r.n = 64
		return
	}
	for r.n <= 56 && r.off < len(r.buf) {
		r.acc |= uint64(r.buf[r.off]) << (56 - r.n)
		r.off++
		r.n += 8
	}
}

// take consumes width ≤ r.n bits from the accumulator. take(0) is a
// no-op returning 0; take(64) drains a full accumulator.
func (r *Reader) take(width uint) uint64 {
	v := r.acc >> (64 - width) // Go defines x>>64 == 0, so width 0 works
	r.acc <<= width
	r.n -= width
	return v
}

// ReadBits consumes `width` bits and returns them in the low positions.
// If fewer than width bits remain, it returns ErrOutOfBits and consumes
// nothing.
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		panic(fmt.Sprintf("bitstream: width %d > 64", width))
	}
	if width <= r.n {
		return r.take(width), nil
	}
	if uint(8*(len(r.buf)-r.off))+r.n < width {
		return 0, ErrOutOfBits
	}
	r.refill()
	if width <= r.n {
		return r.take(width), nil
	}
	// width ∈ [58, 64] straddling a refill boundary: drain, refill, finish.
	have := r.n
	v := r.take(have)
	r.refill()
	rest := width - have
	return v<<rest | r.take(rest), nil
}

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.n == 0 {
		if r.off >= len(r.buf) {
			return 0, ErrOutOfBits
		}
		r.refill()
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.n--
	return b, nil
}

// Peek returns the next `width` ≤ 56 bits without consuming them. Past
// the end of the stream the missing low bits read as zero; pair with
// Consume and check Overread to detect truncation.
func (r *Reader) Peek(width uint) uint64 {
	if r.n < width {
		r.refill()
	}
	return r.acc >> (64 - width)
}

// Consume advances past `width` bits previously examined with Peek.
// Consuming more bits than remain empties the reader and sets the
// sticky Overread flag.
func (r *Reader) Consume(width uint) {
	if r.n < width {
		r.refill()
		if r.n < width {
			r.acc, r.n, r.over = 0, 0, true
			return
		}
	}
	r.acc <<= width
	r.n -= width
}

// Window returns the reader's state for a decode loop that keeps it in
// registers: the accumulator acc, its n valid bits (left-aligned) and
// off, the next unread byte of the stream. Such a loop advances the
// window with Refill, on the buffer the reader reads, and by shifting
// bits out of acc, and hands it back with SetWindow before any other
// call on the reader.
func (r *Reader) Window() (acc uint64, n uint, off int) { return r.acc, r.n, r.off }

// SetWindow hands back a window taken with Window and advanced with
// Refill and shifts.
func (r *Reader) SetWindow(acc uint64, n uint, off int) { r.acc, r.n, r.off = acc, n, off }

// Refill tops a window of buf up: with n ≤ 56 and 8 stream bytes left
// at off, one 8-byte load brings acc to at least 56 valid bits; within
// 8 bytes of the end it returns the window unchanged, and the strict and
// Peek/Consume calls refill byte by byte as always. It is small enough
// to inline into a per-symbol decode loop.
func Refill(buf []byte, acc uint64, n uint, off int) (uint64, uint, int) {
	if n <= 56 && off+8 <= len(buf) {
		acc |= binary.BigEndian.Uint64(buf[off:]) >> n
		off += int(63-n) >> 3
		n |= 56
	}
	return acc, n, off
}

// Overread reports whether a Consume ran past the end of the stream.
func (r *Reader) Overread() bool { return r.over }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*(len(r.buf)-r.off) + int(r.n) }
