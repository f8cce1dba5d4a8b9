package entropy

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// testRNG is a small deterministic xorshift generator so the corpora
// are stable across runs and platforms.
type testRNG uint64

func (r *testRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = testRNG(x)
	return x
}

// fseCompress frames src as fse-only blocks, the way the codec's
// retired "+fse" stage did: ≤ maxBlock blocks, each rle for a single
// symbol, raw below minCompressBlock, and otherwise planFSE's block
// (or raw, when it does not shrink) — the fse block encoder CompressHuf
// still plans and emits. The tests hold it to refFSECompress block for
// block.
func fseCompress(dst, src []byte) []byte {
	st := getScratch()
	defer putScratch(st)
	for len(src) > 0 {
		block := src[:min(len(src), maxBlock)]
		src = src[len(block):]
		switch nsym := st.histogram(block); {
		case nsym == 1:
			dst = append(appendBlockHeader(dst, modeRLE, len(block)), block[0])
		case len(block) < minCompressBlock:
			dst = append(appendBlockHeader(dst, modeRaw, len(block)), block...)
		default:
			p := st.planFSE(block, nsym).orRaw(len(block))
			dst = st.appendBlock(dst, block, &p)
		}
	}
	return dst
}

// corpus returns named byte patterns spanning the coder's block modes:
// rle, raw (short and incompressible), fse (skewed, text-like,
// exponent-heavy), and multi-block sizes straddling maxBlock.
func corpus() map[string][]byte {
	rng := testRNG(0x9e3779b97f4a7c15)
	skewed := func(n int) []byte {
		// Geometric-ish: low byte values dominate, like quantized DCT
		// coefficient magnitudes.
		out := make([]byte, n)
		for i := range out {
			v := rng.next()
			b := byte(0)
			for v&1 == 1 && b < 12 {
				b++
				v >>= 1
			}
			out[i] = b
		}
		return out
	}
	uniform := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.next())
		}
		return out
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog — ношу 1e-3 "), 200)
	expHeavy := make([]byte, 4096)
	for i := range expHeavy {
		if i%4 == 3 {
			expHeavy[i] = 0x3e | byte(rng.next()&1) // float32 exponent lane
		} else {
			expHeavy[i] = byte(rng.next())
		}
	}
	c := map[string][]byte{
		"empty":       nil,
		"one":         {42},
		"two":         {42, 43},
		"short-raw":   uniform(minCompressBlock - 1),
		"rle":         bytes.Repeat([]byte{7}, 1000),
		"rle-2block":  bytes.Repeat([]byte{9}, maxBlock+17),
		"text":        text,
		"skewed-4k":   skewed(4096),
		"skewed-1blk": skewed(maxBlock),
		"skewed-big":  skewed(2*maxBlock + 100),
		"uniform-4k":  uniform(4096),
		"uniform-big": uniform(maxBlock + 5000),
		"exp-heavy":   expHeavy,
		"min-fse":     skewed(minCompressBlock),
		"all-bytes":   nil,
	}
	all := make([]byte, 0, 256*16)
	for r := 0; r < 16; r++ {
		for v := 0; v < 256; v++ {
			all = append(all, byte(v))
		}
	}
	c["all-bytes"] = all
	return c
}

func TestRoundTrip(t *testing.T) {
	for name, src := range corpus() {
		comp := fseCompress(nil, src)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch: got %d bytes, want %d", name, len(got), len(src))
		}
		// Framing overhead is bounded: ≤ 4 bytes per 64 KiB block.
		blocks := (len(src) + maxBlock - 1) / maxBlock
		if max := len(src) + 4*blocks; len(comp) > max {
			t.Fatalf("%s: compressed %d bytes exceeds bound %d", name, len(comp), max)
		}
	}
}

// TestReferenceEquivalence pins the fast path to the bit-serial oracle
// in both directions: identical compressed bytes, and each side decodes
// the other's output.
func TestReferenceEquivalence(t *testing.T) {
	for name, src := range corpus() {
		fast := fseCompress(nil, src)
		ref := refFSECompress(src)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("%s: fast and reference compressed bytes differ (%d vs %d bytes)", name, len(fast), len(ref))
		}
		got, err := ReferenceDecompress(fast)
		if err != nil {
			t.Fatalf("%s: reference decode of fast output: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: reference decode mismatch", name)
		}
	}
}

func TestSkewedDataShrinks(t *testing.T) {
	for _, name := range []string{"skewed-4k", "skewed-1blk", "text", "rle"} {
		src := corpus()[name]
		comp := fseCompress(nil, src)
		if len(comp) >= len(src) {
			t.Errorf("%s: expected compression, got %d -> %d bytes", name, len(src), len(comp))
		}
	}
}

// TestTruncatedStream checks every proper prefix of a compressed stream
// fails to decode (the body-length framing catches all of them), on
// both the fast path and the oracle.
func TestTruncatedStream(t *testing.T) {
	comp := fseCompress(nil, corpus()["skewed-4k"])
	for cut := 1; cut < len(comp); cut += 97 {
		if _, err := Decompress(nil, comp[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
		if _, err := ReferenceDecompress(comp[:cut]); err == nil {
			t.Fatalf("oracle: prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
	}
}

// TestCorruptAgreement flips bytes across a compressed stream and
// requires the fast path and the oracle to agree exactly: both error,
// or both succeed with identical output.
func TestCorruptAgreement(t *testing.T) {
	comp := fseCompress(nil, corpus()["skewed-4k"])
	mut := make([]byte, len(comp))
	for pos := 0; pos < len(comp); pos += 13 {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			copy(mut, comp)
			mut[pos] ^= flip
			fast, fastErr := Decompress(nil, mut)
			ref, refErr := ReferenceDecompress(mut)
			if (fastErr == nil) != (refErr == nil) {
				t.Fatalf("pos %d flip %#x: fast err=%v, oracle err=%v", pos, flip, fastErr, refErr)
			}
			if fastErr == nil && !bytes.Equal(fast, ref) {
				t.Fatalf("pos %d flip %#x: fast and oracle decoded different bytes", pos, flip)
			}
		}
	}
}

func TestCorruptRejected(t *testing.T) {
	cases := map[string][]byte{
		"unknown-mode":     {9, 0},
		"rawlen-too-big":   {modeRaw, 0x81, 0x80, 0x04}, // 65537 > maxBlock
		"raw-truncated":    {modeRaw, 5, 1, 2},
		"rle-missing-sym":  {modeRLE, 5},
		"fse-no-body":      {modeFSE, 0x20},
		"fse-body-overrun": {modeFSE, 0x20, 9, 5, 1},
		"tablelog-low":     {modeFSE, 0x20, 2, 4, 1},
		"tablelog-high":    {modeFSE, 0x20, 2, 13, 1},
		"one-symbol":       {modeFSE, 0x20, 2, 5, 0},
		"table-truncated":  {modeFSE, 0x20, 3, 5, 1, 0},
		"zero-count":       {modeFSE, 0x20, 8, 5, 1, 0, 0, 0, 1, 1, 0},
		"unsorted-syms":    {modeFSE, 0x20, 8, 5, 1, 5, 1, 0, 3, 1, 0},
		"bad-count-sum":    {modeFSE, 0x20, 8, 5, 1, 0, 1, 0, 1, 1, 0},
		"missing-states":   {modeFSE, 0x20, 8, 5, 1, 0, 16, 0, 1, 16, 0},
	}
	for name, src := range cases {
		if _, err := Decompress(nil, src); err == nil {
			t.Errorf("%s: fast path accepted corrupt input", name)
		}
		if _, err := ReferenceDecompress(src); err == nil {
			t.Errorf("%s: oracle accepted corrupt input", name)
		}
	}
}

// TestDecompressCap checks the output bound trips on claimed lengths
// before any oversized append.
func TestDecompressCap(t *testing.T) {
	src := corpus()["skewed-4k"]
	comp := fseCompress(nil, src)
	if _, err := DecompressCap(nil, comp, len(src)); err != nil {
		t.Fatalf("cap == decoded size must succeed: %v", err)
	}
	if _, err := DecompressCap(nil, comp, len(src)-1); err == nil {
		t.Fatal("cap below decoded size must fail")
	}
	// A tiny rle block claiming maxBlock output against a small cap.
	bomb := []byte{modeRLE, 0x80, 0x80, 0x04, 7} // rawLen = 65536
	if _, err := DecompressCap(nil, bomb, 1024); err == nil {
		t.Fatal("expansion bomb must trip the cap")
	}
}

// TestNormalizeMatchesReference holds normalize's one-step drift
// repair to refNormalize's count-at-a-time loops on random histograms
// and on adversarial ones: near-uniform wide alphabets (every floor
// rounds down, the largest under-target shortfall), a few dominant
// symbols beside many singletons (every singleton raised to 1, over
// target), and alphabets exactly filling the table.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := testRNG(0x243f6a8885a308d3)
	type histo struct {
		name   string
		counts []int32 // by symbol value; 0 = absent
	}
	var cases []histo
	for i := 0; i < 300; i++ {
		counts := make([]int32, 256)
		nsym := 2 + int(rng.next()%255)
		for k := 0; k < nsym; k++ {
			counts[rng.next()%256] += 1 + int32(rng.next()%2000)
		}
		cases = append(cases, histo{"random", counts})
	}
	for _, per := range []int32{1, 3, 255, 256, 257, 1000} {
		counts := make([]int32, 256)
		for v := range counts {
			counts[v] = per + int32(rng.next()%3)
		}
		cases = append(cases, histo{"near-uniform", counts})
	}
	for _, singles := range []int{31, 100, 200, 254} {
		counts := make([]int32, 256)
		counts[0], counts[200] = 60000, 3000
		for k := 1; k <= singles; k++ {
			counts[k] = 1
		}
		cases = append(cases, histo{"singletons", counts})
	}
	for _, tc := range cases {
		fast, ref := new(scratch), new(scratch)
		blockLen, nsym := 0, 0
		for v, c := range tc.counts {
			fast.hist[v], ref.hist[v] = c, c
			if c > 0 {
				fast.syms[nsym], ref.syms[nsym] = uint8(v), uint8(v)
				blockLen += int(c)
				nsym++
			}
		}
		for tl := minTableLog; tl <= maxTableLog; tl++ {
			if 1<<tl < nsym {
				continue
			}
			fast.normalize(blockLen, nsym, tl)
			refNormalize(ref, blockLen, nsym, tl)
			if fast.norm != ref.norm || fast.cum != ref.cum {
				t.Fatalf("%s histogram (%d symbols, %d bytes), table log %d: normalize differs from the reference", tc.name, nsym, blockLen, tl)
			}
			if got := fast.cum[nsym]; got != 1<<tl {
				t.Fatalf("%s histogram, table log %d: counts sum %d", tc.name, tl, got)
			}
		}
	}
}

// mixedStream concatenates CompressHuf streams (blocks are
// self-delimiting) into one multi-block stream holding raw, rle, fse
// and huf blocks, and returns it with the bytes it decodes to.
func mixedStream(t *testing.T) (comp, raw []byte) {
	t.Helper()
	c := hufCorpus()
	for _, name := range []string{"uniform-4k", "rle-2block", "skewed-4k", "mantissa-lane"} {
		comp = CompressHuf(comp, c[name])
		raw = append(raw, c[name]...)
	}
	seen := map[byte]bool{}
	for _, m := range hufBlockModes(t, comp) {
		seen[m] = true
	}
	for _, m := range []byte{modeRaw, modeRLE, modeFSE, modeHUF} {
		if !seen[m] {
			t.Fatalf("mixed stream has no mode-%d block", m)
		}
	}
	return comp, raw
}

// TestDecompressCapSizesOnce holds the decode to one output
// allocation: the block-header walk sizes dst before any block
// decodes, so a nil dst costs exactly one allocation and a dst with
// exactly the decoded capacity costs none.
func TestDecompressCapSizesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	comp, raw := mixedStream(t)
	if got := claimedLen(comp, maxInt); got != len(raw) {
		t.Fatalf("header walk claims %d bytes, stream decodes to %d", got, len(raw))
	}
	var out []byte
	var err error
	if nilAllocs := testing.AllocsPerRun(20, func() {
		out, err = DecompressCap(nil, comp, len(raw))
	}); nilAllocs != 1 {
		t.Errorf("DecompressCap(nil, …) allocates %v/op, want 1", nilAllocs)
	}
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("nil-dst decode: err=%v, equal=%v", err, bytes.Equal(out, raw))
	}
	dst := make([]byte, 0, len(raw))
	if exactAllocs := testing.AllocsPerRun(20, func() {
		out, err = DecompressCap(dst, comp, len(raw))
	}); exactAllocs != 0 {
		t.Errorf("DecompressCap into an exact-capacity dst allocates %v/op, want 0", exactAllocs)
	}
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("exact-capacity decode: err=%v, equal=%v", err, bytes.Equal(out, raw))
	}
}

// TestDecompressCapClaimsPastLimit feeds a stream whose blocks claim
// far more than the bound: the decode must fail on the bound having
// allocated at most the blocks that fit, never the claimed total.
func TestDecompressCapClaimsPastLimit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc volumes only hold without -race")
	}
	var bomb []byte
	for i := 0; i < 64; i++ {
		bomb = append(appendBlockHeader(bomb, modeRLE, maxBlock), 7)
	}
	claimed := 64 * maxBlock
	limit := 3*maxBlock + 100
	if got := claimedLen(bomb, limit); got != 3*maxBlock {
		t.Fatalf("header walk under a %d-byte bound claims %d bytes, want the %d that fit", limit, got, 3*maxBlock)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecompressCap(nil, bomb, limit)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "output bound") {
		t.Fatalf("got err=%v, want the output-bound error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(limit)+64<<10 {
		t.Errorf("bound error after allocating %d bytes; the blocks claim %d, the bound is %d", got, claimed, limit)
	}
}

// TestZeroAllocSteadyState is the alloc-regression gate check.sh runs:
// with reused dst buffers, encode and decode must not allocate.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	src := corpus()["skewed-4k"]
	dst := fseCompress(nil, src)
	comp := append([]byte(nil), dst...)
	out, err := Decompress(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = fseCompress(dst[:0], src)
		out, err = Decompress(out[:0], comp)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode+decode allocates %.1f/op, want 0", allocs)
	}
}

func FuzzRoundTrip(f *testing.F) {
	for _, src := range corpus() {
		if len(src) <= 8192 {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := fseCompress(nil, data)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		if len(data) <= 4096 {
			if ref := refFSECompress(data); !bytes.Equal(comp, ref) {
				t.Fatal("fast and reference compressed bytes differ")
			}
		}
	})
}

func FuzzDecode(f *testing.F) {
	for _, src := range corpus() {
		if len(src) > 0 && len(src) <= 8192 {
			f.Add(fseCompress(nil, src))
		}
	}
	f.Add([]byte{modeFSE, 0x20, 8, 5, 1, 0, 16, 0, 1, 16, 0, 0xAA, 0xBB})
	// Huf-mode seeds: the wide-alphabet lanes select huf blocks, so the
	// fuzzer starts inside the huf table and 4-stream parsers too.
	for _, name := range []string{"mantissa-lane", "exponent-lane"} {
		src := hufCorpus()[name]
		if len(src) > 8192 {
			src = src[:8192]
		}
		f.Add(CompressHuf(nil, src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, fastErr := Decompress(nil, data)
		if fastErr == nil && len(fast) != claimedLen(data, maxInt) {
			t.Fatalf("decoded %d bytes, header walk claims %d", len(fast), claimedLen(data, maxInt))
		}
		if len(data) > 1<<16 {
			return // keep the bit-serial oracle affordable
		}
		ref, refErr := ReferenceDecompress(data)
		if (fastErr == nil) != (refErr == nil) {
			t.Fatalf("fast err=%v, oracle err=%v", fastErr, refErr)
		}
		if fastErr == nil && !bytes.Equal(fast, ref) {
			t.Fatal("fast and oracle decoded different bytes")
		}
	})
}

func BenchmarkCompressSkewed(b *testing.B) {
	src := corpus()["skewed-1blk"]
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = fseCompress(dst[:0], src)
	}
}

func BenchmarkDecompressSkewed(b *testing.B) {
	comp := fseCompress(nil, corpus()["skewed-1blk"])
	src := corpus()["skewed-1blk"]
	var dst []byte
	var err error
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = Decompress(dst[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}
