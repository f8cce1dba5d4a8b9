package entropy

import (
	"slices"
	"testing"

	"repro/internal/bitstream"
)

// treeDepths is the independent oracle for HuffmanDepths: the same
// two-queue merge over pointer nodes, depths read off by a recursive
// left-first walk.
func treeDepths(w []int64) []int {
	type node struct {
		w           int64
		leaf        int
		left, right *node
	}
	leaves := make([]*node, len(w))
	for i := range w {
		leaves[i] = &node{w: w[i], leaf: i}
	}
	var internals []*node
	pop := func() *node {
		if len(leaves) > 0 && (len(internals) == 0 || leaves[0].w <= internals[0].w) {
			n := leaves[0]
			leaves = leaves[1:]
			return n
		}
		n := internals[0]
		internals = internals[1:]
		return n
	}
	for len(leaves)+len(internals) > 1 {
		a, b := pop(), pop()
		internals = append(internals, &node{w: a.w + b.w, leaf: -1, left: a, right: b})
	}
	depth := make([]int, len(w))
	var walk func(n *node, d int)
	walk = func(n *node, d int) {
		if n.leaf >= 0 {
			depth[n.leaf] = d
			return
		}
		walk(n.left, d+1)
		walk(n.right, d+1)
	}
	walk(pop(), 0)
	return depth
}

// TestHuffmanDepthsMatchesTreeWalk holds the in-place parent-link build
// to the pointer-tree oracle on random histograms, power-of-two weights
// (which force deep codes) included.
func TestHuffmanDepthsMatchesTreeWalk(t *testing.T) {
	rng := testRNG(0x3c6ef372fe94f82b)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + int(rng.next()%546)
		w := make([]int64, 2*n)
		for i := 0; i < n; i++ {
			if trial%2 == 0 {
				w[i] = 1 + int64(rng.next()%1000)
			} else {
				w[i] = 1 << (rng.next() % 40)
			}
		}
		slices.Sort(w[:n])
		want := treeDepths(w[:n])
		depth := make([]uint16, 2*n)
		HuffmanDepths(n, w, depth)
		for i := 0; i < n; i++ {
			if int(depth[i]) != want[i] {
				t.Fatalf("trial %d, leaf %d of %d: depth %d, want %d", trial, i, n, depth[i], want[i])
			}
		}
	}
}

// TestCanonTableRoundTrip codes every symbol of a Fibonacci-weighted
// alphabet, whose lengths run from 1 to 29 bits, and decodes it back
// through both the LUT and the long-code ladder.
func TestCanonTableRoundTrip(t *testing.T) {
	const n = 30
	w := make([]int64, 2*n)
	w[0], w[1] = 1, 1
	for i := 2; i < n; i++ {
		w[i] = w[i-1] + w[i-2]
	}
	depth := make([]uint16, 2*n)
	HuffmanDepths(n, w, depth)
	// Spread the symbols over a wide alphabet, rarest on the lowest ids.
	lens := make([]uint8, canonMaxSyms)
	for i := 0; i < n; i++ {
		lens[i*19] = uint8(depth[i])
	}
	var tab CanonTable
	if err := tab.Build(lens); err != nil {
		t.Fatal(err)
	}
	syms := tab.Symbols()
	if len(syms) != n {
		t.Fatalf("%d symbols in canonical order, want %d", len(syms), n)
	}
	for i := 1; i < n; i++ {
		a, b := syms[i-1], syms[i]
		if lens[a] > lens[b] || lens[a] == lens[b] && a > b {
			t.Fatalf("canonical order breaks at %d: symbol %d (len %d) before %d (len %d)", i, a, lens[a], b, lens[b])
		}
	}
	nbits := 0
	for _, l := range lens {
		nbits += 3 * int(l)
	}
	buf := make([]byte, (nbits+7)/8+8)
	bw := bitstream.NewEmitter(buf)
	for rep := 0; rep < 3; rep++ {
		for sym := range lens {
			if e := tab.Enc[sym]; e != 0 {
				bw.Put(e>>8, uint(e&0xFF))
			}
		}
	}
	r := bitstream.NewReader(buf[:bw.Len()])
	for rep := 0; rep < 3; rep++ {
		for sym, l := range lens {
			if l == 0 {
				continue
			}
			got, err := tab.ReadSym(r)
			if err != nil {
				t.Fatalf("symbol %d (len %d): %v", sym, l, err)
			}
			if got != sym {
				t.Fatalf("decoded %d, want %d (len %d)", got, sym, l)
			}
		}
	}
}

// TestCanonTableRejectsOversubscribed: three 1-bit codes (Kraft 3/2)
// and a 33-bit length have no canonical code.
func TestCanonTableRejectsOversubscribed(t *testing.T) {
	var tab CanonTable
	for _, lens := range [][]uint8{{1, 1, 1}, {1, 2, 3, 3, 3}, {1, 33}} {
		if err := tab.Build(lens); err == nil {
			t.Fatalf("lengths %v accepted", lens)
		}
	}
	if err := tab.Build([]uint8{1, 2, 3, 3}); err != nil {
		t.Fatalf("complete code rejected: %v", err)
	}
}
