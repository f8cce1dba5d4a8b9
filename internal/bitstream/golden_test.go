package bitstream

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// goldenStream is one recorded byte-at-a-time-era stream: a write
// script, the exact bytes it produced (including partial-byte zero
// padding), a read-back script with expected values, and the position
// at which ErrOutOfBits fired.
type goldenStream struct {
	Name      string          `json:"name"`
	Writes    [][2]any        `json:"writes"` // [valueHex, width]
	Hex       string          `json:"hex"`
	Bits      int             `json:"bits"`
	Reads     []uint          `json:"reads,omitempty"`
	Want      []string        `json:"want,omitempty"`
	FailAfter int             `json:"fail_after,omitempty"`
	FailWidth uint            `json:"fail_width,omitempty"`
	raw       json.RawMessage `json:"-"`
}

func loadGolden(t *testing.T) []goldenStream {
	t.Helper()
	data, err := os.ReadFile("testdata/golden_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var gs []goldenStream
	if err := json.Unmarshal(data, &gs); err != nil {
		t.Fatal(err)
	}
	if len(gs) == 0 {
		t.Fatal("empty golden corpus")
	}
	return gs
}

// TestGoldenWriter replays each recorded write script through the
// Emitter and requires byte-identical output, including the zero
// padding of the final partial byte. The scripts hold unmasked values
// and 64-bit writes, so the harness masks each value to its width and
// splits a write wider than 56 bits into two Puts.
func TestGoldenWriter(t *testing.T) {
	for _, g := range loadGolden(t) {
		t.Run(g.Name, func(t *testing.T) {
			var puts []put
			bits := 0
			for _, wr := range g.Writes {
				v, err := strconv.ParseUint(wr[0].(string), 16, 64)
				if err != nil {
					t.Fatal(err)
				}
				k := uint(wr[1].(float64))
				if k < 64 {
					v &= 1<<k - 1
				}
				if k > 56 {
					puts = append(puts, put{v >> 32, k - 32})
					v, k = v&(1<<32-1), 32
				}
				puts = append(puts, put{v, k})
				bits += int(wr[1].(float64))
			}
			if bits != g.Bits {
				t.Fatalf("script writes %d bits, recorded %d", bits, g.Bits)
			}
			got := hex.EncodeToString(emit(puts...))
			if got != g.Hex {
				t.Fatalf("bytes diverge from recorded stream:\n got %s\nwant %s", got, g.Hex)
			}
		})
	}
}

// TestGoldenReader replays each recorded read script against the
// recorded bytes and requires identical values and an identical
// ErrOutOfBits position (erroring without consuming).
func TestGoldenReader(t *testing.T) {
	for _, g := range loadGolden(t) {
		t.Run(g.Name, func(t *testing.T) {
			buf, err := hex.DecodeString(g.Hex)
			if err != nil {
				t.Fatal(err)
			}
			r := NewReader(buf)
			for i, width := range g.Reads {
				want, err := strconv.ParseUint(g.Want[i], 16, 64)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.ReadBits(width)
				if err != nil {
					t.Fatalf("read %d (width %d): %v", i, width, err)
				}
				if got != want {
					t.Fatalf("read %d (width %d) = %#x, recorded %#x", i, width, got, want)
				}
			}
			if g.FailWidth > 0 {
				before := r.Remaining()
				if _, err := r.ReadBits(g.FailWidth); err != ErrOutOfBits {
					t.Fatalf("after %d reads, width %d: err = %v, recorded ErrOutOfBits", g.FailAfter, g.FailWidth, err)
				}
				if r.Remaining() != before {
					t.Fatalf("failed read consumed bits: remaining %d -> %d", before, r.Remaining())
				}
			}
		})
	}
}

// TestGoldenPeekConsume decodes every golden stream a second time
// through the Peek/Consume API, which must agree with ReadBits.
func TestGoldenPeekConsume(t *testing.T) {
	for _, g := range loadGolden(t) {
		t.Run(g.Name, func(t *testing.T) {
			buf, err := hex.DecodeString(g.Hex)
			if err != nil {
				t.Fatal(err)
			}
			r := NewReader(buf)
			for i, width := range g.Reads {
				want, _ := strconv.ParseUint(g.Want[i], 16, 64)
				var got uint64
				if width > 56 {
					// Peek is capped at 56 bits; split wide reads.
					hi := r.Peek(56)
					r.Consume(56)
					lo := r.Peek(width - 56)
					r.Consume(width - 56)
					got = hi<<(width-56) | lo
				} else {
					got = r.Peek(width)
					r.Consume(width)
				}
				if r.Overread() {
					t.Fatalf("read %d (width %d): unexpected overread", i, width)
				}
				if got != want {
					t.Fatalf("read %d (width %d) = %#x, recorded %#x", i, width, got, want)
				}
			}
		})
	}
}
