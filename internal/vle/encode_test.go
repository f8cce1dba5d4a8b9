package vle

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// refCountBlock is the symbol-by-symbol reference for countBlock: the
// same tokenizer with explicit branches on the sign and on a zero
// magnitude.
func refCountBlock[T ~int | ~int32](e *Encoder, coeffs []T) {
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
			e.freq[0]++
			run = 0
			continue
		}
		vv := v
		if vv < 0 {
			vv = -vv
		}
		var cat int
		if vv > 0 {
			cat = bits.Len64(uint64(vv))
		}
		e.freq[1+run*32+cat]++
		run = 0
	}
	e.freq[0]++
}

// bitWriter is the reference's bit-by-bit MSB-first writer, sharing
// nothing with bitstream's emitter.
type bitWriter struct {
	buf []byte
	n   int // bits written
}

// write appends the low width bits of v, most significant first.
func (w *bitWriter) write(v uint64, width uint) {
	for i := int(width) - 1; i >= 0; i-- {
		if w.n%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		w.buf[len(w.buf)-1] |= byte(v>>uint(i)&1) << (7 - w.n%8)
		w.n++
	}
}

// refEmitBlock is the reference for emitBlock, branching on the sign
// as refCountBlock does and writing each code and its extra bits
// separately.
func refEmitBlock[T ~int | ~int32](e *Encoder, w *bitWriter, coeffs []T) {
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
				w.write(e.code.Enc[sym]>>8, uint(e.lens[sym]))
				run = 0
			}
			continue
		}
		if v == symEOB {
			w.write(e.code.Enc[0]>>8, uint(e.lens[0]))
			run = 0
			continue
		}
		neg := v < 0
		vv := v
		if neg {
			vv = -vv
		}
		var cat uint
		if vv > 0 {
			cat = uint(bits.Len64(uint64(vv)))
		}
		sym := 1 + run*32 + int(cat)
		extra := uint64(vv)
		if neg {
			extra |= 1 << cat
		}
		w.write(e.code.Enc[sym]>>8, uint(e.lens[sym]))
		w.write(extra, cat+1)
		run = 0
	}
	w.write(e.code.Enc[0]>>8, uint(e.lens[0]))
}

// refWriteHeader is the reference for writeHeader: block count, block
// size, symbol count, then each symbol and its code length.
func refWriteHeader(e *Encoder, w *bitWriter, nblocks, size int) {
	w.write(uint64(nblocks), 32)
	w.write(uint64(size), 16)
	syms := e.code.Symbols()
	w.write(uint64(len(syms)), 16)
	for _, sym := range syms {
		w.write(uint64(sym), 16)
		w.write(uint64(e.lens[sym]), 6)
	}
}

// refEncode codes blocks through the reference tokenizer, header and
// bit writer, and the package's own Huffman build. It is the
// historical encoder too: it codes −32768 as the end-of-block marker,
// where Encode refuses the value, so the decoder tests build the
// streams such a collision left behind with it.
func refEncode[T ~int | ~int32](blocks [][]T) ([]byte, error) {
	e := &Encoder{}
	for _, b := range blocks {
		refCountBlock(e, b)
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	var w bitWriter
	refWriteHeader(e, &w, len(blocks), len(blocks[0]))
	for _, b := range blocks {
		refEmitBlock(e, &w, b)
	}
	return w.buf, nil
}

// requireReferenceBytes codes blocks through Encode, through
// AppendFlat when every value fits an int32, and through the
// reference: all must agree byte for byte, and FlatLen must give the
// stream's length. When a block holds a value the coder refuses
// (refusal), Encode, AppendFlat and FlatLen must refuse it.
func requireReferenceBytes(t *testing.T, name string, blocks [][]int) {
	t.Helper()
	if err := refusal(blocks); err != nil {
		requireRefused(t, name, blocks, err)
		return
	}
	want, err := refEncode(blocks)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := Encode(blocks)
	if err != nil {
		t.Fatalf("%s: Encode: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Encode %x, reference %x", name, got, want)
	}
	flat, ok := flatten(blocks)
	if !ok {
		return
	}
	got, err = AppendFlat([]byte{0xA5}, flat, len(blocks[0]))
	if err != nil {
		t.Fatalf("%s: AppendFlat: %v", name, err)
	}
	if got[0] != 0xA5 || !bytes.Equal(got[1:], want) {
		t.Fatalf("%s: AppendFlat %x, reference %x", name, got[1:], want)
	}
	if n, err := FlatLen(flat, len(blocks[0])); err != nil || n != len(want) {
		t.Fatalf("%s: FlatLen %d (err %v), stream %d bytes", name, n, err, len(want))
	}
}

// flatten lays blocks back to back as int32s, reporting false when a
// value does not fit one.
func flatten(blocks [][]int) ([]int32, bool) {
	flat := make([]int32, 0, len(blocks)*len(blocks[0]))
	for _, b := range blocks {
		for _, v := range b {
			if int(int32(v)) != v {
				return nil, false
			}
			flat = append(flat, int32(v))
		}
	}
	return flat, true
}

// refusal is the error the coder refuses blocks with: errEOBValue for
// −32768 and errWideValue for a nonzero value outside ±(2³¹−1),
// whichever comes first, or nil when it codes them.
func refusal(blocks [][]int) error {
	for _, b := range blocks {
		for _, v := range b {
			switch {
			case v == symEOB:
				return errEOBValue
			case v > math.MaxInt32 || v < -math.MaxInt32:
				return errWideValue
			}
		}
	}
	return nil
}

// requireRefused: Encode, and AppendFlat and FlatLen when every value
// fits an int32, refuse blocks with want.
func requireRefused(t *testing.T, name string, blocks [][]int, want error) {
	t.Helper()
	if _, err := Encode(blocks); !errors.Is(err, want) {
		t.Fatalf("%s: Encode returned %v, want %v", name, err, want)
	}
	flat, ok := flatten(blocks)
	if !ok {
		return
	}
	if _, err := AppendFlat(nil, flat, len(blocks[0])); !errors.Is(err, want) {
		t.Fatalf("%s: AppendFlat returned %v, want %v", name, err, want)
	}
	if _, err := FlatLen(flat, len(blocks[0])); !errors.Is(err, want) {
		t.Fatalf("%s: FlatLen returned %v, want %v", name, err, want)
	}
}

// TestEncodeMatchesReference: the branch-free tokenizer codes the
// sign and category edge cases — 0, ±1, ±(2³¹−1), zero runs around the
// 15-zero split, all-zero blocks — and random two-sided codes exactly
// as the reference does, and refuses −32768, the end-of-block
// collision, and math.MinInt32, whose category-32 symbol is a pure
// zero run's, wherever they fall.
func TestEncodeMatchesReference(t *testing.T) {
	edges := []int{0, 1, -1, math.MaxInt32, -math.MaxInt32, math.MinInt32, symEOB, 2, -2, 32767, -32767, 65535, -65536}
	for _, v := range edges {
		requireReferenceBytes(t, "value "+strconv.Itoa(v), [][]int{{v, 0, v, 3, -v}})
	}
	requireReferenceBytes(t, "edges in one block", [][]int{edges, edges})
	for _, run := range []int{14, 15, 16, 31} {
		for _, tail := range []int{1, -1, math.MinInt32, symEOB} {
			b := make([]int, run+3)
			b[run] = tail
			b[run+2] = -7
			requireReferenceBytes(t, "run "+strconv.Itoa(run)+" then "+strconv.Itoa(tail), [][]int{b, make([]int, run+3)})
		}
	}
	requireReferenceBytes(t, "all-zero blocks", [][]int{make([]int, 8), make([]int, 8), make([]int, 8)})
	requireReferenceBytes(t, "one-value blocks", [][]int{{0}, {-1}, {math.MinInt32}, {0}})

	rng := tensor.NewRNG(21)
	for _, scale := range []float64{0.5, 4, 400, 1e7} {
		for _, nz := range []float64{0.1, 0.6, 1} {
			for _, size := range []int{1, 16, 128} {
				codes := twoSided(rng, size*(1+rng.Intn(20)), scale, nz, 0)
				blocks := make([][]int, len(codes)/size)
				for b := range blocks {
					blocks[b] = make([]int, size)
					for i := range blocks[b] {
						blocks[b][i] = int(codes[b*size+i])
					}
				}
				requireReferenceBytes(t, "random", blocks)
			}
		}
	}
}

// TestEncodeMinInt64Pinned: math.MinInt64, whose magnitude overflows
// int64, is refused like every value wider than 31 bits. The historical
// encoder, pinned here through the reference to its recorded stream,
// gave it category 0 and so a pure zero run's symbol: that stream does
// not decode to its input. Only a 64-bit int can hold it.
func TestEncodeMinInt64Pinned(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("math.MinInt64 needs a 64-bit int")
	}
	v := int64(math.MinInt64) // a variable: the constant overflows a 32-bit int
	minInt := int(v)
	blocks := [][]int{{minInt, 0, 5, minInt, -3}, {0, 0, minInt}}
	requireReferenceBytes(t, "math.MinInt64", blocks)
	const recorded = "000000020005000500000800042004108000c300240df57b94"
	data, err := refEncode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(data) != recorded {
		t.Fatalf("reference %x, recorded %s", data, recorded)
	}
	if back, err := Decode(data); err == nil && slices.Equal(back[0], blocks[0]) {
		t.Fatalf("recorded stream decodes to its input %v", back[0])
	}
}

// TestWideValueRefused: math.MinInt32 has category 32, so after r
// zeros its symbol is a pure run of r+1 zeros. The historical encoder
// coded it so, and its stream decodes without an error to other
// values; AppendFlat and FlatLen refuse it.
func TestWideValueRefused(t *testing.T) {
	flat := make([]int32, 64)
	flat[0], flat[1] = math.MinInt32, 5
	if _, err := AppendFlat(nil, flat, 64); !errors.Is(err, errWideValue) {
		t.Fatalf("AppendFlat returned %v, want %v", err, errWideValue)
	}
	if _, err := FlatLen(flat, 64); !errors.Is(err, errWideValue) {
		t.Fatalf("FlatLen returned %v, want %v", err, errWideValue)
	}
	data, err := refEncode([][]int32{flat})
	if err != nil {
		t.Fatal(err)
	}
	back := make([]int32, 64)
	if err := DecodeFlatInto(back, data, 64); err == nil && slices.Equal(back, flat) {
		t.Fatal("the historical stream decodes to its input")
	}
}

// TestFlatBlockSizeLimit: the header holds the block size in 16 bits,
// so AppendFlat and FlatLen refuse a wider block rather than write a
// stream that names another size, and the error names the limit.
func TestFlatBlockSizeLimit(t *testing.T) {
	flat := make([]int32, MaxFlatBlock+1)
	flat[7] = 3
	limit := fmt.Sprintf("block size %d outside [1, %d]", len(flat), MaxFlatBlock)
	if _, err := AppendFlat(nil, flat, len(flat)); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("AppendFlat on a block wider than the header's field: err %v, want %q", err, limit)
	}
	if _, err := FlatLen(flat, len(flat)); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("FlatLen on a block wider than the header's field: err %v, want %q", err, limit)
	}
	data, err := AppendFlat(nil, flat[:MaxFlatBlock], MaxFlatBlock)
	if err != nil {
		t.Fatal(err)
	}
	back := make([]int32, MaxFlatBlock)
	if err := DecodeFlatInto(back, data, MaxFlatBlock); err != nil || !slices.Equal(back, flat[:MaxFlatBlock]) {
		t.Fatalf("widest block does not round-trip (err %v)", err)
	}
}
