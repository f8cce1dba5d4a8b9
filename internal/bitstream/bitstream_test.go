package bitstream

import (
	"math/rand/v2"
	"testing"
)

// put is one Emitter.Put call.
type put struct {
	v uint64
	k uint
}

// emit writes puts through an Emitter whose buffer holds exactly the
// stream plus its 8 bytes of slack, and returns the stream.
func emit(puts ...put) []byte {
	bits := 0
	for _, p := range puts {
		bits += int(p.k)
	}
	n := (bits + 7) / 8
	buf := make([]byte, n+8)
	e := NewEmitter(buf)
	for _, p := range puts {
		e.Put(p.v, p.k)
	}
	return buf[:e.Len()]
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := NewReader(emit(put{0b101, 3}, put{0xFF, 8}, put{0, 5}, put{0xDEADBEEF, 32}, put{1, 1}))
	for _, c := range []struct {
		width uint
		want  uint64
	}{{3, 0b101}, {8, 0xFF}, {5, 0}, {32, 0xDEADBEEF}, {1, 1}} {
		got, err := r.ReadBits(c.width)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("ReadBits(%d) = %#x, want %#x", c.width, got, c.want)
		}
	}
	if r.Remaining() != 7 {
		t.Fatalf("Remaining = %d, want the 7 padding bits", r.Remaining())
	}
}

func TestZeroWidthIsNoop(t *testing.T) {
	if b := emit(put{0, 0}); len(b) != 0 {
		t.Fatalf("zero-width put emitted % x", b)
	}
	if b := emit(put{0xA, 4}, put{0, 0}, put{0x5, 4}); len(b) != 1 || b[0] != 0xA5 {
		t.Fatalf("zero-width put between nibbles gave % x", b)
	}
}

// TestFull64BitWrite reads a 64-bit value, emitted as two Puts, back
// with one ReadBits.
func TestFull64BitWrite(t *testing.T) {
	const v = 0xA5A5_5A5A_DEAD_BEEF
	r := NewReader(emit(put{v >> 32, 32}, put{v & (1<<32 - 1), 32}))
	got, err := r.ReadBits(64)
	if err != nil || got != v {
		t.Fatalf("64-bit round trip %#x (%v)", got, err)
	}
}

func TestOverReadFails(t *testing.T) {
	r := NewReader(emit(put{1, 3}))
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal("padded byte should still be readable")
	}
	if _, err := r.ReadBits(1); err != ErrOutOfBits {
		t.Fatalf("over-read error = %v", err)
	}
}

func TestSkipAndRemaining(t *testing.T) {
	r := NewReader(emit(put{0xAB, 8}, put{0xCD, 8}))
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if v, err := r.ReadBits(8); err != nil || v != 0xAB {
		t.Fatalf("first read %#x (%v)", v, err)
	}
	if r.Remaining() != 8 {
		t.Fatalf("Remaining after one byte = %d", r.Remaining())
	}
	v, err := r.ReadBits(8)
	if err != nil || v != 0xCD {
		t.Fatalf("second read %#x (%v)", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining at the end = %d", r.Remaining())
	}
}

// TestRoundTripProperty emits random (v, k ≤ 56) sequences, k = 0
// included, into a buffer of exactly the stream's length plus 8 bytes:
// the Reader reads every value back, the length is ⌈bits/8⌉, and the
// padding bits are zero.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 2000; trial++ {
		puts := make([]put, rng.IntN(60))
		bits := 0
		for i := range puts {
			k := uint(rng.IntN(57))
			if rng.IntN(8) == 0 {
				k = 0
			}
			puts[i] = put{rng.Uint64() & (1<<k - 1), k}
			bits += int(k)
		}
		b := emit(puts...)
		if len(b) != (bits+7)/8 {
			t.Fatalf("trial %d: %d bytes for %d bits", trial, len(b), bits)
		}
		r := NewReader(b)
		for i, p := range puts {
			got, err := r.ReadBits(p.k)
			if err != nil || got != p.v {
				t.Fatalf("trial %d: put %d (%d bits) read back %#x (%v), want %#x", trial, i, p.k, got, err, p.v)
			}
		}
		if pad := uint(r.Remaining()); pad > 7 {
			t.Fatalf("trial %d: %d bits left past the stream", trial, pad)
		} else if v, _ := r.ReadBits(pad); v != 0 {
			t.Fatalf("trial %d: padding bits %#b, want zero", trial, v)
		}
	}
}

// TestEmitterRefusesShortBuffer holds the slack contract: a buffer
// short of the stream plus its slack fails the bounds check instead of
// writing past it.
func TestEmitterRefusesShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put into a buffer short of its slack did not panic")
		}
	}()
	e := NewEmitter(make([]byte, 1+6))
	e.Put(0xFF, 8)
}

func TestPeekConsumeOverread(t *testing.T) {
	r := NewReader(emit(put{0b1011, 4})) // one padded byte: 1011_0000
	if v := r.Peek(4); v != 0b1011 {
		t.Fatalf("Peek(4) = %#b", v)
	}
	// Peeking past the end zero-pads.
	if v := r.Peek(12); v != 0b1011_0000_0000 {
		t.Fatalf("Peek(12) = %#b", v)
	}
	r.Consume(8)
	if r.Overread() {
		t.Fatal("consuming the padded byte is not an overread")
	}
	r.Consume(1)
	if !r.Overread() {
		t.Fatal("consuming past the end must set Overread")
	}
	if !r.Overread() {
		t.Fatal("Overread must be sticky")
	}
}

func TestWideReadFailureConsumesNothing(t *testing.T) {
	// 60 bits available, 64 requested: the split path must pre-check
	// and leave the reader untouched on failure.
	r := NewReader(emit(put{1<<56 - 1, 56}))
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	rem := r.Remaining()
	if _, err := r.ReadBits(64); err != ErrOutOfBits {
		t.Fatalf("err = %v", err)
	}
	if r.Remaining() != rem {
		t.Fatalf("failed wide read consumed bits: %d -> %d", rem, r.Remaining())
	}
	// The remaining 53 bits must still read back intact.
	v, err := r.ReadBits(53)
	if err != nil || v != (1<<53)-1 {
		t.Fatalf("tail read %#x (%v)", v, err)
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader([]byte{0xAA})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	r.Reset([]byte{0x55, 0x55})
	if r.Remaining() != 16 || r.Overread() {
		t.Fatal("Reset must clear state")
	}
	v, err := r.ReadBits(16)
	if err != nil || v != 0x5555 {
		t.Fatalf("after Reset read %#x (%v)", v, err)
	}
}

// TestReaderMatchesBitModel drives every Reader call in random
// interleavings — strict, Peek/Consume and a Window advanced by Refill
// and shifts — against a bit-indexed model of the same buffer. Refill's
// word load leaves copies of the following stream bits below the valid
// ones; no other call may see them as anything but the
// stream's own bits, and none may see them past the end.
func TestReaderMatchesBitModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.IntN(40))
		for i := range buf {
			buf[i] = byte(rng.Uint32())
		}
		total := 8 * len(buf)
		// bits returns the w bits at pos, zero past the end.
		bits := func(pos int, w uint) uint64 {
			var v uint64
			for k := 0; k < int(w); k++ {
				b := uint64(0)
				if i := pos + k; i < total {
					b = uint64(buf[i/8]>>(7-i%8)) & 1
				}
				v = v<<1 | b
			}
			return v
		}
		r := NewReader(buf)
		pos := 0
		for op := 0; op < 60 && !r.Overread(); op++ {
			switch rng.IntN(4) {
			case 0:
				w := uint(rng.IntN(65))
				v, err := r.ReadBits(w)
				if pos+int(w) > total {
					if err != ErrOutOfBits {
						t.Fatalf("trial %d: ReadBits(%d) at %d/%d: err %v", trial, w, pos, total, err)
					}
					continue
				}
				if err != nil || v != bits(pos, w) {
					t.Fatalf("trial %d: ReadBits(%d) at %d = %#x (%v), want %#x", trial, w, pos, v, err, bits(pos, w))
				}
				pos += int(w)
			case 1:
				w := uint(rng.IntN(57))
				if v := r.Peek(w); v != bits(pos, w) {
					t.Fatalf("trial %d: Peek(%d) at %d = %#x, want %#x", trial, w, pos, v, bits(pos, w))
				}
			case 2:
				w := uint(rng.IntN(20))
				r.Consume(w)
				if pos+int(w) > total {
					if !r.Overread() {
						t.Fatalf("trial %d: Consume(%d) at %d/%d did not set Overread", trial, w, pos, total)
					}
					continue
				}
				pos += int(w)
			default:
				acc, n, off := r.Window()
				acc, n, off = Refill(buf, acc, n, off)
				if n > uint(total-pos) || (n < 56 && total-pos-int(n) >= 64) {
					t.Fatalf("trial %d: %d window bits after Refill at %d/%d", trial, n, pos, total)
				}
				w := uint(rng.IntN(int(n) + 1))
				if v := acc >> (64 - w); v != bits(pos, w) {
					t.Fatalf("trial %d: window's top %d bits at %d = %#x, want %#x", trial, w, pos, v, bits(pos, w))
				}
				r.SetWindow(acc<<w, n-w, off)
				pos += int(w)
			}
			if r.Remaining() != total-pos {
				t.Fatalf("trial %d: Remaining %d, want %d", trial, r.Remaining(), total-pos)
			}
		}
	}
}

// TestPutTokensMatchesPut: PutTokens writes, for every token, its
// symbol's code and then its extra bits, byte for byte as a Put of each
// would — code and extra bits summing past 56 included — and leaves the
// Emitter where those Puts would, so later Puts continue the stream.
func TestPutTokensMatchesPut(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	codes := make([]uint64, 1<<TokenSymBits)
	for sym := range codes {
		l := uint64(1 + rng.IntN(32))
		codes[sym] = rng.Uint64()&(1<<l-1)<<8 | l
	}
	for trial := 0; trial < 300; trial++ {
		toks := make([]uint64, rng.IntN(200))
		var puts []put
		for i := range toks {
			sym := uint64(rng.IntN(len(codes)))
			k := uint(rng.IntN(33))
			extra := rng.Uint64() & (1<<k - 1)
			toks[i] = sym | uint64(k)<<TokenSymBits | extra<<TokenExtra
			puts = append(puts, put{codes[sym] >> 8, uint(codes[sym] & 0xFF)}, put{extra, k})
		}
		lead, tail := put{rng.Uint64() & 0x7F, uint(rng.IntN(8))}, put{0x2D, 6}
		lead.v &= 1<<lead.k - 1
		want := emit(append(append([]put{lead}, puts...), tail)...)
		buf := make([]byte, len(want)+8)
		e := NewEmitter(buf)
		e.Put(lead.v, lead.k)
		e.PutTokens(toks, codes)
		e.Put(tail.v, tail.k)
		if got := buf[:e.Len()]; string(got) != string(want) {
			t.Fatalf("trial %d: PutTokens wrote % x, Puts % x", trial, got, want)
		}
	}
}
