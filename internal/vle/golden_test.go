package vle

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// goldenBlocks regenerates the fixed block sets the golden streams were
// recorded from (same generators as the capture tool).
func goldenBlocks() map[string][][]int {
	mk := func(n, size int, f func(b, i int) int) [][]int {
		out := make([][]int, n)
		for b := range out {
			out[b] = make([]int, size)
			for i := range out[b] {
				out[b][i] = f(b, i)
			}
		}
		return out
	}
	return map[string][][]int{
		"sparse": mk(6, 64, func(b, i int) int {
			if (b+i)%13 == 0 {
				return (i % 7) - 3
			}
			return 0
		}),
		"dense":   mk(3, 64, func(b, i int) int { return int((int64(b)*int64(i)*2654435761)%401) - 200 }),
		"allzero": mk(4, 64, func(b, i int) int { return 0 }),
		"runs": mk(2, 200, func(b, i int) int {
			if i%47 == 0 {
				return 1000 + i
			}
			return 0
		}),
		"single": mk(1, 1, func(b, i int) int { return -7 }),
		"bigmag": mk(1, 16, func(b, i int) int { return (1 << uint(i)) * (1 - 2*(i%2)) }),
		"deep":   deepBlocks(),
	}
}

// deepBlocks pins codes longer than the decoder's 11-bit LUT. It deals
// 20 distinct (run, ±1/±2) tokens round-robin into 144 blocks, giving
// the 21 symbols (EOB included, one per block) the Fibonacci counts
// F(1)..F(21): Fibonacci weights make the Huffman tree a caterpillar,
// so the two rarest symbols get 20-bit codes.
func deepBlocks() [][]int {
	const nsym, eob = 21, 11 // EOB takes F(12) = 144, the block count
	fib := make([]int, nsym)
	fib[0], fib[1] = 1, 1
	for k := 2; k < nsym; k++ {
		fib[k] = fib[k-1] + fib[k-2]
	}
	blocks := make([][]int, fib[eob])
	t, j := 0, 0
	for k := nsym - 1; k >= 0; k-- {
		if k == eob {
			continue
		}
		run, v := j%15, 1+j/15
		for n := 0; n < fib[k]; n++ {
			b := t % len(blocks)
			blocks[b] = append(blocks[b], make([]int, run)...)
			blocks[b] = append(blocks[b], v*(1-2*(n%2)))
			t++
		}
		j++
	}
	size := 0
	for _, b := range blocks {
		size = max(size, len(b))
	}
	for b := range blocks {
		blocks[b] = append(blocks[b], make([]int, size-len(blocks[b]))...)
	}
	return blocks
}

// TestGoldenStreams holds the array-based two-pass coder to the exact
// bytes the original map-and-token implementation produced — header,
// Huffman code assignment (including tie-breaks), and payload — and
// requires every stream to decode back to the inputs through both the
// block and the flat decoder.
func TestGoldenStreams(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name string `json:"name"`
		Hex  string `json:"hex"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	inputs := goldenBlocks()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			blocks, ok := inputs[tc.Name]
			if !ok {
				t.Fatalf("no generator for golden case %q", tc.Name)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			size := len(blocks[0])
			flat := make([]int32, 0, len(blocks)*size)
			for _, b := range blocks {
				for _, v := range b {
					flat = append(flat, int32(v))
				}
			}
			encode := func() ([]byte, error) { return Encode(blocks) }
			encodeFlat := func() ([]byte, error) { return AppendFlat(nil, flat, size) }
			if err := refusal(blocks); err != nil {
				// Both encoders refuse −32768 now; the historical
				// encoder still reproduces the recorded stream.
				requireRefused(t, tc.Name, blocks, err)
				encode = func() ([]byte, error) { return refEncode(blocks) }
				encodeFlat = encode
			} else if n, err := FlatLen(flat, size); err != nil || n != len(want) {
				t.Fatalf("FlatLen %d (err %v), recorded stream %d bytes", n, err, len(want))
			}
			got, err := encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Encode diverges from recorded stream (len %d vs %d)", len(got), len(want))
			}
			// The flat path must emit the identical stream.
			gotFlat, err := encodeFlat()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotFlat, want) {
				t.Fatalf("AppendFlat diverges from recorded stream (len %d vs %d)", len(gotFlat), len(want))
			}
			// And the recorded bytes must decode on both paths. The
			// historical −32768/EOB sentinel collision makes that value
			// decode as an early end-of-block, zeroing it and the rest
			// of its block — preserved behaviour, so model it here.
			expect := make([][]int, len(blocks))
			for b := range blocks {
				expect[b] = make([]int, len(blocks[b]))
				for i, v := range blocks[b] {
					if v == symEOB {
						break
					}
					expect[b][i] = v
				}
			}
			back, err := Decode(want)
			if err != nil {
				t.Fatal(err)
			}
			for b := range expect {
				for i := range expect[b] {
					if back[b][i] != expect[b][i] {
						t.Fatalf("block %d position %d: decoded %d, want %d", b, i, back[b][i], expect[b][i])
					}
				}
			}
			dst := make([]int32, len(flat))
			if err := DecodeFlatInto(dst, want, size); err != nil {
				t.Fatal(err)
			}
			for b := range expect {
				for i, v := range expect[b] {
					if dst[b*size+i] != int32(v) {
						t.Fatalf("flat block %d position %d: decoded %d, want %d", b, i, dst[b*size+i], v)
					}
				}
			}
		})
	}
}

// TestFlatMatchesBlocks cross-checks AppendFlat/DecodeFlatInto against
// Encode/Decode on randomized data.
func TestFlatMatchesBlocks(t *testing.T) {
	const nblocks, size = 17, 48
	blocks := make([][]int, nblocks)
	flat := make([]int32, 0, nblocks*size)
	s := uint64(99991)
	for b := range blocks {
		blocks[b] = make([]int, size)
		for i := range blocks[b] {
			s = s*6364136223846793005 + 1442695040888963407
			if s%3 == 0 {
				blocks[b][i] = int(int32(s%2048)) - 1024
			}
			flat = append(flat, int32(blocks[b][i]))
		}
	}
	ref, err := Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendFlat(nil, flat, size)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatal("flat encode diverges from block encode")
	}
	dst := make([]int32, len(flat))
	if err := DecodeFlatInto(dst, ref, size); err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if dst[i] != flat[i] {
			t.Fatalf("position %d: %d != %d", i, dst[i], flat[i])
		}
	}
}

// TestAppendFlatZeroAllocs proves the flat path is allocation-free at
// steady state with a capacity-managed destination.
func TestAppendFlatZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	const size = 64
	flat := make([]int32, 32*size)
	for i := range flat {
		if i%5 == 0 {
			flat[i] = int32(i%251) - 125
		}
	}
	dst := make([]byte, 0, 1<<16)
	out := make([]int32, len(flat))
	// Warm the pools.
	if _, err := AppendFlat(dst, flat, size); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		enc, err := AppendFlat(dst, flat, size)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeFlatInto(out, enc, size); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("flat roundtrip allocates %v/op, want 0", allocs)
	}
}
