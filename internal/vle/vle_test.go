package vle

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/tensor"
)

// Encode compresses blocks of zigzagged integer coefficients with
// RLE + canonical Huffman. All blocks must have the same length, and no
// value may be −32768, the end-of-block marker's value. It is the
// tests' one-slice-per-block view of the coder: its stream is
// AppendFlat's over the same values, and Decode reverses both.
func Encode(blocks [][]int) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("vle: no blocks")
	}
	e := encoderPool.Get().(*Encoder)
	defer encoderPool.Put(e)
	e.reset()
	n := 0
	for _, b := range blocks {
		n += len(b) + 1 // at most a token per value, and the EOB
	}
	toks := make([]uint64, n)
	rest := toks
	for _, b := range blocks {
		var err error
		if rest, err = countBlock(e, b, rest); err != nil {
			return nil, err
		}
	}
	e.toks = toks[:len(toks)-len(rest)]
	if err := e.build(); err != nil {
		return nil, err
	}
	buf := make([]byte, e.flatLen()+8)
	w := bitstream.NewEmitter(buf)
	e.writeHeader(&w, len(blocks), len(blocks[0]))
	w.PutTokens(e.toks, e.code.Enc[:])
	return buf[:w.Len()], nil
}

// maxBlockSize bounds a decoded block against hostile headers.
const maxBlockSize = 1 << 14

// Decode reverses Encode.
func Decode(data []byte) ([][]int, error) {
	d := decoderPool.Get().(*Decoder)
	defer decoderPool.Put(d)
	r := bitstream.NewReader(data)
	nblocks, size, err := d.readHeader(r)
	if err != nil {
		return nil, err
	}
	// Sanity bounds against hostile headers: every block costs at least
	// one bit (its EOB symbol), so the stream length caps the count.
	if nblocks < 1 || nblocks > r.Remaining() {
		return nil, fmt.Errorf("vle: implausible block count %d for %d remaining bits", nblocks, r.Remaining())
	}
	if size < 1 || size > maxBlockSize {
		return nil, fmt.Errorf("vle: implausible block size %d", size)
	}
	out := make([][]int, 0, min(nblocks, 1024))
	row := make([]int32, size)
	for b := 0; b < nblocks; b++ {
		if err := d.decodeBlockInto(r, data, row); err != nil {
			return nil, err
		}
		block := make([]int, size)
		for i, v := range row {
			block[i] = int(v)
		}
		out = append(out, block)
	}
	return out, nil
}

// roundTrip checks that blocks survive both paths exactly: Encode/Decode,
// and AppendFlat/DecodeFlatInto over the same values.
func roundTrip(t *testing.T, blocks [][]int) {
	t.Helper()
	data, err := Encode(blocks)
	if err != nil {
		t.Fatalf("%v: %v", blocks, err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatalf("%v: %v", blocks, err)
	}
	if len(back) != len(blocks) {
		t.Fatalf("decoded %d blocks, want %d", len(back), len(blocks))
	}
	size := len(blocks[0])
	flat := make([]int32, 0, len(blocks)*size)
	for b := range blocks {
		for i := range blocks[b] {
			if back[b][i] != blocks[b][i] {
				t.Fatalf("%v round-tripped to %v", blocks[b], back[b])
			}
			flat = append(flat, int32(blocks[b][i]))
		}
	}
	enc, err := AppendFlat(nil, flat, size)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, len(flat))
	if err := DecodeFlatInto(dst, enc, size); err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if dst[i] != flat[i] {
			t.Fatalf("flat position %d: %d != %d", i, dst[i], flat[i])
		}
	}
}

// TestRLERoundTrip: zero runs, trailing zeros (end-of-block) and dense
// blocks survive the run-length stage of the coder.
func TestRLERoundTrip(t *testing.T) {
	for _, block := range [][]int{
		{0, 0, 0, 0},
		{5, 0, 0, -3, 0, 0, 0, 1},
		{1, 2, 3, 4},
		{0, 0, 0, 0, 0, 0, 0, 9},
		make([]int, 64), // all zeros, JPEG-sized
	} {
		roundTrip(t, [][]int{block})
	}
}

func TestRLELongZeroRuns(t *testing.T) {
	block := make([]int, 64)
	block[40] = 7 // 40 zeros then a value: needs run splitting (>maxRun)
	roundTrip(t, [][]int{block})
}

// TestTokenSymbolRoundTrip: each (run, value) token at the edges of the
// symbol alphabet maps to a symbol and back. A token is placed as a run
// of zeros followed by its value; {15, 0} is a pure maxRun-zero run.
func TestTokenSymbolRoundTrip(t *testing.T) {
	for _, tok := range [][2]int{
		{0, 1}, {3, -1}, {15, 1023}, {7, -512}, {0, -1023}, {15, 0},
	} {
		block := make([]int, 64)
		block[tok[0]] = tok[1]
		if tok[1] == 0 {
			block[maxRun+1] = 1 // forces the pure run to be emitted
		}
		roundTrip(t, [][]int{block})
	}
	roundTrip(t, [][]int{make([]int, 64)}) // {0, EOB} alone
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	blocks := make([][]int, 50)
	for b := range blocks {
		block := make([]int, 64)
		// Sparse, JPEG-like: a few low-index nonzeros.
		for k := 0; k < 6; k++ {
			block[rng.Intn(16)] = rng.Intn(64) - 32
		}
		blocks[b] = block
	}
	roundTrip(t, blocks)
}

// forgeStream writes a stream header declaring the given (symbol,
// length) pairs, followed by the payload bits.
func forgeStream(nblocks, size int, lens [][2]int, payload ...uint) []byte {
	var w bitWriter
	w.write(uint64(nblocks), 32)
	w.write(uint64(size), 16)
	w.write(uint64(len(lens)), 16)
	for _, sl := range lens {
		w.write(uint64(sl[0]), 16)
		w.write(uint64(sl[1]), 6)
	}
	for _, b := range payload {
		w.write(uint64(b), 1)
	}
	return w.buf
}

// TestDecodeRejectsOversubscribedCode: three 1-bit codes have Kraft sum
// 3/2, so no prefix code assigns them; the header must be rejected
// rather than decoded with an overflowed code.
func TestDecodeRejectsOversubscribedCode(t *testing.T) {
	data := forgeStream(1, 4, [][2]int{{0, 1}, {1, 1}, {2, 1}}, 0)
	if err := DecodeFlatInto(make([]int32, 4), data, 4); err == nil {
		t.Fatal("over-subscribed code lengths accepted by DecodeFlatInto")
	}
	if _, err := Decode(data); err == nil {
		t.Fatal("over-subscribed code lengths accepted by Decode")
	}
}

// TestDecodeFlatIntoBlockCountOverflow: a header claiming 128+2²⁵
// blocks of 128 values describes 2³²+16384 values, which a 32-bit int
// product wraps to the 16384 the destination holds. The count check
// must not wrap.
func TestDecodeFlatIntoBlockCountOverflow(t *testing.T) {
	const size = 128
	data := forgeStream(128+1<<25, size, [][2]int{{0, 1}}, make([]uint, 128)...)
	if err := DecodeFlatInto(make([]int32, 128*size), data, size); err == nil {
		t.Fatal("forged block count accepted")
	}
}

func TestSparseDataCompresses(t *testing.T) {
	// The motivation for VLE: sparse quantized blocks compress far below
	// their raw size.
	blocks := make([][]int, 100)
	for b := range blocks {
		block := make([]int, 64)
		block[0] = 12 + b%5 // DC only
		blocks[b] = block
	}
	data, err := Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := 100 * 64 * 4
	if len(data)*8 > rawBytes {
		t.Fatalf("VLE output %d bytes larger than raw/8 %d", len(data), rawBytes/8)
	}
}

func TestDenseDataStillRoundTrips(t *testing.T) {
	rng := tensor.NewRNG(2)
	blocks := make([][]int, 10)
	for b := range blocks {
		block := make([]int, 16)
		for i := range block {
			block[i] = rng.Intn(2001) - 1000
		}
		blocks[b] = block
	}
	data, err := Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for b := range blocks {
		for i := range blocks[b] {
			if back[b][i] != blocks[b][i] {
				t.Fatal("dense round trip failed")
			}
		}
	}
}

func TestEncodeRejectsEmpty(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

// Property: any block set round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, rawN, rawSize uint8) bool {
		rng := tensor.NewRNG(seed)
		nblocks := int(rawN%8) + 1
		size := int(rawSize%60) + 4
		blocks := make([][]int, nblocks)
		for b := range blocks {
			block := make([]int, size)
			for i := range block {
				if rng.Float64() < 0.3 {
					block[i] = rng.Intn(513) - 256
				}
			}
			blocks[b] = block
		}
		data, err := Encode(blocks)
		if err != nil {
			return false
		}
		back, err := Decode(data)
		if err != nil {
			return false
		}
		for b := range blocks {
			for i := range blocks[b] {
				if back[b][i] != blocks[b][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
