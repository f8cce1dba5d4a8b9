package vle

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"testing"

	"repro/internal/bitstream"
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

// refEmitBlock is the reference for emitBlock, branching on the sign
// as refCountBlock does.
func refEmitBlock[T ~int | ~int32](e *Encoder, w *bitstream.Writer, coeffs []T) {
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
				w.WriteBits(e.code.Enc[sym]>>8, uint(e.lens[sym]))
				run = 0
			}
			continue
		}
		if v == symEOB {
			w.WriteBits(e.code.Enc[0]>>8, uint(e.lens[0]))
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
		l := uint(e.lens[sym])
		if l+cat+1 <= 64 {
			w.WriteBits(e.code.Enc[sym]>>8<<(cat+1)|extra, l+cat+1)
		} else {
			w.WriteBits(e.code.Enc[sym]>>8, l)
			w.WriteBits(extra, cat+1)
		}
		run = 0
	}
	w.WriteBits(e.code.Enc[0]>>8, uint(e.lens[0]))
}

// refEncode codes blocks through the reference tokenizer and the
// package's own Huffman build and header. It is the historical encoder
// too: it codes −32768 as the end-of-block marker, where Encode refuses
// the value, so the decoder tests build the streams such a collision
// left behind with it.
func refEncode[T ~int | ~int32](blocks [][]T) ([]byte, error) {
	e := &Encoder{}
	for _, b := range blocks {
		refCountBlock(e, b)
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	w := bitstream.NewWriter()
	e.writeHeader(w, len(blocks), len(blocks[0]))
	for _, b := range blocks {
		refEmitBlock(e, w, b)
	}
	return w.Bytes(), nil
}

// requireReferenceBytes codes blocks through Encode, through
// AppendFlat when every value fits an int32, and through the
// reference: all must agree byte for byte, or, when a block holds
// −32768, Encode and AppendFlat must refuse it.
func requireReferenceBytes(t *testing.T, name string, blocks [][]int) {
	t.Helper()
	if holdsEOBValue(blocks) {
		requireEOBRefused(t, name, blocks)
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
	flat := make([]int32, 0, len(blocks)*len(blocks[0]))
	for _, b := range blocks {
		for _, v := range b {
			if int(int32(v)) != v {
				return
			}
			flat = append(flat, int32(v))
		}
	}
	got, err = AppendFlat([]byte{0xA5}, flat, len(blocks[0]))
	if err != nil {
		t.Fatalf("%s: AppendFlat: %v", name, err)
	}
	if got[0] != 0xA5 || !bytes.Equal(got[1:], want) {
		t.Fatalf("%s: AppendFlat %x, reference %x", name, got[1:], want)
	}
}

// holdsEOBValue reports whether a block holds −32768.
func holdsEOBValue(blocks [][]int) bool {
	for _, b := range blocks {
		if slices.Contains(b, symEOB) {
			return true
		}
	}
	return false
}

// requireEOBRefused: Encode and AppendFlat refuse blocks holding
// −32768 with errEOBValue.
func requireEOBRefused(t *testing.T, name string, blocks [][]int) {
	t.Helper()
	if _, err := Encode(blocks); !errors.Is(err, errEOBValue) {
		t.Fatalf("%s: Encode returned %v, want the end-of-block collision refused", name, err)
	}
	var flat []int32
	for _, b := range blocks {
		for _, v := range b {
			flat = append(flat, int32(v))
		}
	}
	if _, err := AppendFlat(nil, flat, len(blocks[0])); !errors.Is(err, errEOBValue) {
		t.Fatalf("%s: AppendFlat returned %v, want the end-of-block collision refused", name, err)
	}
}

// TestEncodeMatchesReference: the branch-free tokenizer codes the
// sign and category edge cases — 0, ±1, the int32 extremes, zero runs
// around the 15-zero split, all-zero blocks — and random two-sided
// codes exactly as the reference does, and refuses −32768, the
// end-of-block collision, wherever it falls.
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
// int64, codes as the historical encoder coded it — category 0, extra
// bits 1<<63|1 — pinned to the recorded stream and to the reference.
// Only a 64-bit int can hold it.
func TestEncodeMinInt64Pinned(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("math.MinInt64 needs a 64-bit int")
	}
	v := int64(math.MinInt64) // a variable: the constant overflows a 32-bit int
	minInt := int(v)
	blocks := [][]int{{minInt, 0, 5, minInt, -3}, {0, 0, minInt}}
	got, err := Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	const recorded = "000000020005000500000800042004108000c300240df57b94"
	if hex.EncodeToString(got) != recorded {
		t.Fatalf("Encode %x, recorded %s", got, recorded)
	}
	requireReferenceBytes(t, "math.MinInt64", blocks)
}
