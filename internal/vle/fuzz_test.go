package vle

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecode hardens the Huffman/RLE decoder against arbitrary streams:
// error or success, never a panic or runaway allocation. Wherever the
// header's geometry is small enough to allocate, the flat decoder must
// also agree with the symbol-by-symbol reference: both fail, or both
// decode the same values.
func FuzzDecode(f *testing.F) {
	rng := tensor.NewRNG(1)
	blocks := make([][]int, 4)
	for b := range blocks {
		block := make([]int, 64)
		for k := 0; k < 5; k++ {
			block[rng.Intn(16)] = rng.Intn(32) - 16
		}
		blocks[b] = block
	}
	valid, err := Encode(blocks)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/2] ^= 0x40
	f.Add(bitflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		if n, size, ok := headerValues(data); ok {
			agreeWithReference(t, data, size, n)
		}
		blocks, err := Decode(data)
		if err != nil {
			return
		}
		for _, b := range blocks {
			if len(b) > 1<<16 {
				t.Fatal("implausible block size accepted")
			}
		}
	})
}

// FuzzEncodeDecodeRoundTrip: whatever integer content the coefficients
// hold, Encode and AppendFlat must emit the reference encoder's bytes,
// FlatLen must give their length, and Encode∘Decode must be the
// identity.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint64(1), 8, 20)
	f.Add(uint64(42), 1, 64)
	f.Add(uint64(7), 3, 4)
	f.Fuzz(func(t *testing.T, seed uint64, nblocks, size int) {
		if nblocks < 1 || nblocks > 16 || size < 1 || size > 128 {
			return
		}
		rng := tensor.NewRNG(seed)
		blocks := make([][]int, nblocks)
		for b := range blocks {
			block := make([]int, size)
			for i := range block {
				if rng.Float64() < 0.4 {
					block[i] = rng.Intn(4001) - 2000
				}
			}
			blocks[b] = block
		}
		data, err := Encode(blocks)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := refEncode(blocks); err != nil || !bytes.Equal(data, want) {
			t.Fatalf("Encode %x, reference %x (err %v)", data, want, err)
		}
		flat, _ := flatten(blocks)
		if got, err := AppendFlat(nil, flat, size); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("AppendFlat %x, Encode %x (err %v)", got, data, err)
		}
		if n, err := FlatLen(flat, size); err != nil || n != len(data) {
			t.Fatalf("FlatLen %d (err %v), stream %d bytes", n, err, len(data))
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != nblocks {
			t.Fatalf("decoded %d blocks, want %d", len(back), nblocks)
		}
		for b := range blocks {
			for i := range blocks[b] {
				if back[b][i] != blocks[b][i] {
					t.Fatalf("block %d pos %d: %d != %d", b, i, back[b][i], blocks[b][i])
				}
			}
		}
	})
}
