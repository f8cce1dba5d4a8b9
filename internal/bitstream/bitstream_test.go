package bitstream

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBit(1)
	if w.Bits() != 3+8+5+32+1 {
		t.Fatalf("Bits = %d", w.Bits())
	}
	r := NewReader(w.Bytes())
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
}

func TestWidthMasking(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xFFFF, 4) // only low 4 bits should be kept
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(4)
	if err != nil || v != 0xF {
		t.Fatalf("masked write read back %#x (%v)", v, err)
	}
}

func TestZeroWidthIsNoop(t *testing.T) {
	w := NewWriter()
	w.WriteBits(123, 0)
	if w.Bits() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("zero-width write must not emit anything")
	}
}

func TestFull64BitWrite(t *testing.T) {
	w := NewWriter()
	const v = 0xA5A5_5A5A_DEAD_BEEF
	w.WriteBits(v, 64)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(64)
	if err != nil || got != v {
		t.Fatalf("64-bit round trip %#x (%v)", got, err)
	}
}

func TestOverReadFails(t *testing.T) {
	w := NewWriter()
	w.WriteBits(1, 3)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal("padded byte should still be readable")
	}
	if _, err := r.ReadBits(1); err != ErrOutOfBits {
		t.Fatalf("over-read error = %v", err)
	}
}

func TestSkipAndRemaining(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xAB, 8)
	w.WriteBits(0xCD, 8)
	r := NewReader(w.Bytes())
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if err := r.Skip(8); err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadBits(8)
	if err != nil || v != 0xCD {
		t.Fatalf("after skip read %#x", v)
	}
	if err := r.Skip(1); err != ErrOutOfBits {
		t.Fatal("skip past end must fail")
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(values []uint64, widths []uint8) bool {
		n := len(values)
		if len(widths) < n {
			n = len(widths)
		}
		w := NewWriter()
		type rec struct {
			v     uint64
			width uint
		}
		var recs []rec
		for i := 0; i < n; i++ {
			width := uint(widths[i] % 65)
			v := values[i]
			if width < 64 {
				v &= (1 << width) - 1
			}
			w.WriteBits(values[i], width)
			recs = append(recs, rec{v, width})
		}
		r := NewReader(w.Bytes())
		for _, rc := range recs {
			got, err := r.ReadBits(rc.width)
			if err != nil || got != rc.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesSealsWriter(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xAB, 8)
	b1 := w.Bytes()
	b2 := w.Bytes()
	if &b1[0] != &b2[0] || len(b1) != len(b2) {
		t.Fatal("repeated Bytes must return the same sealed buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits after Bytes must panic")
		}
	}()
	w.WriteBits(1, 1)
}

func TestResetReusesBuffer(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xDEADBEEF, 32)
	first := w.Bytes()
	if len(first) != 4 {
		t.Fatalf("len = %d", len(first))
	}
	w.Reset()
	if w.Bits() != 0 {
		t.Fatal("Reset must clear bit count")
	}
	w.WriteBits(0x12, 8)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0x12 {
		t.Fatalf("after Reset got % x", got)
	}
}

func TestWriterPool(t *testing.T) {
	w := GetWriter()
	w.WriteBits(0xFFFF, 16)
	if len(w.Bytes()) != 2 {
		t.Fatal("pooled writer broken")
	}
	PutWriter(w)
	w2 := GetWriter()
	if w2.Bits() != 0 {
		t.Fatal("pooled writer not reset")
	}
	PutWriter(w2)
}

func TestPeekConsumeOverread(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b1011, 4)
	r := NewReader(w.Bytes()) // one padded byte: 1011_0000
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
	w := NewWriter()
	w.WriteBits(^uint64(0), 56)
	r := NewReader(w.Bytes())
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
// interleavings — strict, Peek/Consume and the Fill/PeekBuffered/
// ConsumeBuffered fast path — against a bit-indexed model of the same
// buffer. Fill's word load leaves copies of the following stream bits
// below the valid ones; no other call may see them as anything but the
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
			switch rng.IntN(6) {
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
			case 3:
				n := rng.IntN(70)
				if err := r.Skip(n); (err != nil) != (pos+n > total) {
					t.Fatalf("trial %d: Skip(%d) at %d/%d: err %v", trial, n, pos, total, err)
				}
				if pos+n <= total {
					pos += n
				}
			default:
				r.Fill()
				n := r.Buffered()
				if n > uint(total-pos) || (n < 56 && total-pos-int(n) >= 64) {
					t.Fatalf("trial %d: Buffered %d after Fill at %d/%d", trial, n, pos, total)
				}
				w := uint(rng.IntN(int(n) + 1))
				if v := r.PeekBuffered(w); v != bits(pos, w) {
					t.Fatalf("trial %d: PeekBuffered(%d) at %d = %#x, want %#x", trial, w, pos, v, bits(pos, w))
				}
				r.ConsumeBuffered(w)
				pos += int(w)
			}
			if r.Remaining() != total-pos {
				t.Fatalf("trial %d: Remaining %d, want %d", trial, r.Remaining(), total-pos)
			}
		}
	}
}
