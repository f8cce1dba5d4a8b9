package entropy

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/vecops"
)

// The canonical Huffman machinery shared by the huf backend (huf.go)
// and internal/vle: one two-queue length build and one canonical code
// table. Each caller keeps the rules that define its own format around
// them — huf clamps lengths to 11 bits and repairs the Kraft sum, vle
// promotes a lone symbol to one bit and rejects lengths past 32.

const (
	// canonMaxSyms bounds a table's alphabet: huf's 256 bytes and
	// vle's 546 (run, category) symbols. It keeps a table small enough
	// that huf's pooled scratch stays a small-object allocation.
	canonMaxSyms = 576
	canonMaxLen  = 32
	// canonLutBits is the single-probe decode width: every code of at
	// most 11 bits resolves in one LUT lookup.
	canonLutBits = 11
)

// HuffmanDepths runs the two-queue Huffman merge over n ≥ 1 leaves
// whose weights w[:n] are sorted ascending, ties already broken by
// symbol. Internal nodes are created into w[n:2n-1] in nondecreasing
// weight order, and ties pop the leaf queue first (deterministic, and
// biased toward shallower leaves). On return depth[:n] holds each
// leaf's unclamped depth (0 for a lone leaf). w and depth need room for
// 2n-1 nodes.
func HuffmanDepths(n int, w []int64, depth []uint16) {
	total := 2*n - 1
	leaf, internal := 0, n
	for created := n; created < total; created++ {
		take := func() int {
			if leaf < n && (internal >= created || w[leaf] <= w[internal]) {
				leaf++
				return leaf - 1
			}
			internal++
			return internal - 1
		}
		a, b := take(), take()
		w[created] = w[a] + w[b]
		depth[a], depth[b] = uint16(created), uint16(created) // parent links
	}
	// Every parent is created after its children, so one pass from the
	// root down turns the parent links into depths in place.
	depth[total-1] = 0
	for k := total - 2; k >= 0; k-- {
		depth[k] = depth[depth[k]] + 1
	}
}

// CanonTable is the canonical code for a set of per-symbol code
// lengths: code values are assigned in (length, symbol) ascending
// order, the textbook canonical numbering. Build derives the encode
// table, the present symbols in canonical order, and the decode tables
// — an 11-bit single-probe LUT plus a per-length ladder for longer
// codes. The zero value is ready for Build; pool tables rather than
// copy them.
type CanonTable struct {
	// Enc holds code<<8 | length per symbol, 0 for absent symbols.
	Enc [canonMaxSyms]uint64

	order [canonMaxSyms]uint16 // present symbols in canonical order
	nsym  int
	// lut maps the next 11 bits to sym<<4 | length when they start a
	// code of at most 11 bits, else to 0.
	lut [1 << canonLutBits]uint16
	// The ladder: per length, the first code value, the number of codes
	// and the position of the first one in order.
	first  [canonMaxLen + 1]uint32
	count  [canonMaxLen + 1]uint32
	index  [canonMaxLen + 1]uint32
	maxLen uint
}

// Build derives the code for lens, one length per symbol of the
// caller's alphabet (0 = absent, at most 32, at most 576 symbols). It
// rejects over-subscribed length sets (Kraft sum above 1), which no
// prefix code can assign; incomplete sets are accepted, and their
// unused code values fail in ReadSym.
func (t *CanonTable) Build(lens []uint8) error {
	clear(t.count[:])
	for sym, l := range lens {
		if l > canonMaxLen {
			return fmt.Errorf("entropy: code length %d for symbol %d exceeds %d", l, sym, canonMaxLen)
		}
		t.count[l]++
	}
	t.count[0] = 0
	var next [canonMaxLen + 1]uint64
	code, idx := uint64(0), uint32(0)
	t.maxLen = 0
	for l := uint(1); l <= canonMaxLen; l++ {
		t.first[l], t.index[l], next[l] = uint32(code), idx, code
		code += uint64(t.count[l])
		if code > 1<<l {
			return fmt.Errorf("entropy: code lengths over-subscribed at %d bits (Kraft sum above 1)", l)
		}
		idx += t.count[l]
		if t.count[l] > 0 {
			t.maxLen = l
		}
		code <<= 1
	}
	// Walking symbols in ascending order hands out each length's codes
	// in symbol order and places the symbol at its canonical rank.
	t.nsym = int(idx)
	for sym, l := range lens {
		if l == 0 {
			t.Enc[sym] = 0
			continue
		}
		c := next[l]
		next[l]++
		t.Enc[sym] = c<<8 | uint64(l)
		t.order[uint64(t.index[l])+c-uint64(t.first[l])] = uint16(sym)
	}
	// Short codes in canonical order own consecutive LUT spans from 0
	// up; whatever follows the last one belongs to longer codes or to
	// none.
	end := uint64(0)
	for _, sym := range t.order[:t.nsym] {
		l := uint(t.Enc[sym] & 0xFF)
		if l > canonLutBits {
			break
		}
		span := uint64(1) << (canonLutBits - l)
		vecops.FillUint16(t.lut[end:end+span], uint16(sym)<<4|uint16(l))
		end += span
	}
	vecops.FillUint16(t.lut[end:], 0)
	return nil
}

// Symbols returns the present symbols in canonical (length, symbol)
// order.
func (t *CanonTable) Symbols() []uint16 { return t.order[:t.nsym] }

// ReadSym decodes one symbol from r: one LUT probe for codes of at most
// 11 bits, the per-length ladder for longer ones.
func (t *CanonTable) ReadSym(r *bitstream.Reader) (int, error) {
	if ent := t.lut[r.Peek(canonLutBits)]; ent != 0 {
		r.Consume(uint(ent & 15))
		if r.Overread() {
			return 0, bitstream.ErrOutOfBits
		}
		return int(ent >> 4), nil
	}
	code := r.Peek(t.maxLen)
	for l := uint(canonLutBits + 1); l <= t.maxLen; l++ {
		if c := uint32(code>>(t.maxLen-l)) - t.first[l]; c < t.count[l] {
			r.Consume(l)
			if r.Overread() {
				return 0, bitstream.ErrOutOfBits
			}
			return int(t.order[t.index[l]+c]), nil
		}
	}
	return 0, fmt.Errorf("entropy: invalid Huffman code")
}
