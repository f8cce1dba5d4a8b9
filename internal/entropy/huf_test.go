package entropy

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/telemetry"
)

// hufCorpus extends the shared corpus with byte-group-lane shapes —
// wide-alphabet, moderately skewed — where the huf backend should win
// the size selection (the fse table cost dominates at 100+ symbols).
func hufCorpus() map[string][]byte {
	c := corpus()
	rng := testRNG(0x6a09e667f3bcc909)
	mantissa := make([]byte, 3*maxBlock/2)
	for i := range mantissa {
		// Gaussian-ish wide alphabet: sum of uniforms, like the low
		// mantissa lane of trained-weight float32s.
		v := (rng.next()&0xFF + rng.next()&0xFF + rng.next()&0xFF) / 3
		mantissa[i] = byte(v)
	}
	c["mantissa-lane"] = mantissa
	exponents := make([]byte, maxBlock)
	for i := range exponents {
		exponents[i] = 0xBA + byte(rng.next()&0x07) // bf16-style exponent lane
	}
	c["exponent-lane"] = exponents
	return c
}

// hufBlockModes walks a compressed stream's block framing and returns
// the sequence of mode bytes, so tests can assert which backend the
// selector actually chose.
func hufBlockModes(t *testing.T, comp []byte) []byte {
	t.Helper()
	var modes []byte
	for len(comp) > 0 {
		mode, rawLen, rest, err := blockHeader(comp)
		if err != nil {
			t.Fatalf("walking own output: %v", err)
		}
		modes = append(modes, mode)
		switch mode {
		case modeRaw:
			comp = rest[rawLen:]
		case modeRLE:
			comp = rest[1:]
		case modeFSE, modeHUF:
			bodyLen, used := uvarint(t, rest)
			comp = rest[used+bodyLen:]
		default:
			t.Fatalf("unknown mode %d in own output", mode)
		}
	}
	return modes
}

func uvarint(t *testing.T, b []byte) (int, int) {
	t.Helper()
	v, n := 0, 0
	for shift := 0; ; shift += 7 {
		if n >= len(b) {
			t.Fatal("truncated uvarint in own output")
		}
		c := b[n]
		n++
		v |= int(c&0x7F) << shift
		if c < 0x80 {
			return v, n
		}
	}
}

func TestHufRoundTrip(t *testing.T) {
	for name, src := range hufCorpus() {
		comp := CompressHuf(nil, src)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("%s: round trip mismatch: got %d bytes, want %d", name, len(got), len(src))
		}
		blocks := (len(src) + maxBlock - 1) / maxBlock
		if max := len(src) + 4*blocks; len(comp) > max {
			t.Fatalf("%s: compressed %d bytes exceeds bound %d", name, len(comp), max)
		}
	}
}

// TestHufSelection pins the block-mode selector: wide-alphabet lanes
// must actually choose huf blocks, skewed small-alphabet data must
// stay on fse, and constant lanes on rle.
func TestHufSelection(t *testing.T) {
	c := hufCorpus()
	want := map[string]byte{
		"mantissa-lane": modeHUF,
		"text":          modeFSE, // ~35 symbols: the 3n-byte fse table beats huf's fixed 134
		"skewed-4k":     modeFSE,
		"exponent-lane": modeFSE, // 8 symbols: tiny fse table wins
		"rle":           modeRLE,
	}
	for name, mode := range want {
		comp := CompressHuf(nil, c[name])
		for i, m := range hufBlockModes(t, comp) {
			if m != mode {
				t.Errorf("%s block %d: selected mode %d, want %d", name, i, m, mode)
			}
		}
	}
}

// TestHufReferenceEquivalence pins CompressHuf to the bit-serial oracle
// in both directions, mirroring TestReferenceEquivalence for fse.
func TestHufReferenceEquivalence(t *testing.T) {
	for name, src := range hufCorpus() {
		fast := CompressHuf(nil, src)
		ref := ReferenceCompressHuf(src)
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

// tailAlphabets draws blocks of n bytes from the alphabets the huf
// tail sweep runs over: two symbols (1-bit codes, so most streams end
// mid-byte), Fibonacci and geometric weights whose deepest codes need
// the clamp to 11 bits on a full block, and a wide mantissa-like lane.
func tailAlphabets(n int) map[string][]byte {
	rng := testRNG(0x9e3779b97f4a7c15 ^ uint64(n))
	draw := func(weights []uint64) []byte {
		var total uint64
		for _, w := range weights {
			total += w
		}
		out := make([]byte, n)
		for i := range out {
			r := rng.next() % total
			sym := 0
			for r >= weights[sym] {
				r -= weights[sym]
				sym++
			}
			out[i] = byte(17 * sym) // spread the symbols over the byte range
		}
		return out
	}
	fib := []uint64{1, 1}
	for len(fib) < 22 {
		fib = append(fib, fib[len(fib)-1]+fib[len(fib)-2])
	}
	geo := make([]uint64, 24)
	for k := range geo {
		geo[k] = 1 << (23 - k)
	}
	wide := make([]byte, n)
	for i := range wide {
		wide[i] = byte((rng.next()&0xFF + rng.next()&0xFF + rng.next()&0xFF) / 3)
	}
	return map[string][]byte{
		"two-symbol": draw([]uint64{3, 1}),
		"fibonacci":  draw(fib),
		"geometric":  draw(geo),
		"wide":       wide,
	}
}

// TestHufEncodeTailsMatchReference sweeps the huf emitter over every
// stream tail: block lengths 32…300 give segments of every length mod
// 4 with every final partial byte, and 65533…65536 do the same at the
// full block size. At each length the four streams, cut at the ends
// planHuf sizes from the segment histograms, are compared with the
// bit-serial oracle's byte for byte (whether or not huf wins the
// block's selection), and the whole CompressHuf output with
// ReferenceCompressHuf's.
func TestHufEncodeTailsMatchReference(t *testing.T) {
	var lengths []int
	for n := 32; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, maxBlock-3, maxBlock-2, maxBlock-1, maxBlock)
	hufBlocks, maxLen := 0, uint8(0)
	for _, n := range lengths {
		for name, block := range tailAlphabets(n) {
			st := new(scratch)
			if nsym := st.histogram(block); nsym >= 2 {
				st.hufBuildLengths(nsym)
				maxLen = max(maxLen, slices.Max(st.hlen[:]))
				ends := st.planHuf(nsym).ends
				got := make([]byte, ends[hufNumStreams-1]+8)
				st.hufEmitStreams(got, block)
				want := refHufStreams(block, st.hlen[:])
				off := 0
				for s, stream := range want {
					if ends[s] != off+len(stream) || !bytes.Equal(got[off:ends[s]], stream) {
						t.Fatalf("%s, %d bytes: stream %d differs from the oracle's (planned to end at %d, oracle's ends at %d)", name, n, s, ends[s], off+len(stream))
					}
					off += len(stream)
				}
			}
			fast := CompressHuf(nil, block)
			if ref := ReferenceCompressHuf(block); !bytes.Equal(fast, ref) {
				t.Fatalf("%s, %d bytes: fast and reference compressed bytes differ (%d vs %d bytes)", name, n, len(fast), len(ref))
			}
			if bytes.Contains(hufBlockModes(t, fast), []byte{modeHUF}) {
				hufBlocks++
			}
		}
	}
	// The sweep must reach the emitter through the selection too, and
	// with codes at the length cap.
	if hufBlocks == 0 {
		t.Fatal("no block in the sweep selected huf")
	}
	if maxLen != hufMaxLen {
		t.Fatalf("longest code in the sweep is %d bits, want %d", maxLen, hufMaxLen)
	}
	t.Logf("%d of %d blocks selected huf", hufBlocks, 4*len(lengths))
}

// TestHufLenMatchesCompressHuf holds the size-only coder to the
// encoder: HufLen must equal the length of CompressHuf's output, and of
// the bit-serial oracle's, on blocks that take every mode — rle, raw
// (short or incompressible), fse and huf, each checked against the
// modes CompressHuf chose — and on lengths straddling the 64 KiB block
// boundary.
func TestHufLenMatchesCompressHuf(t *testing.T) {
	rng := testRNG(0x510e527fade682d1)
	c := hufCorpus()
	twoSym := make([]byte, 5000)
	for i := range twoSym {
		twoSym[i] = byte(rng.next()&1) * 0xFF
	}
	cases := []struct {
		name string
		src  []byte
		mode byte // the mode every block must take; 0xFF: any mix
	}{
		{"all-equal", bytes.Repeat([]byte{0x3c}, 3*maxBlock+5), modeRLE},
		{"two-symbol", twoSym, 0xFF},
		{"uniform", c["uniform-big"], modeRaw},
		{"short", c["short-raw"], modeRaw},
		{"fse-chosen", c["skewed-big"], modeFSE},
		{"huf-chosen", c["mantissa-lane"], modeHUF},
		{"empty", nil, 0xFF},
	}
	for _, n := range []int{maxBlock - 1, maxBlock, maxBlock + 1} {
		for name, src := range tailAlphabets(n) {
			cases = append(cases, struct {
				name string
				src  []byte
				mode byte
			}{fmt.Sprintf("%s-%d", name, n), src, 0xFF})
		}
	}
	for _, tc := range cases {
		comp := CompressHuf(nil, tc.src)
		if got := HufLen(tc.src); got != len(comp) {
			t.Errorf("%s (%d bytes): HufLen %d, CompressHuf wrote %d", tc.name, len(tc.src), got, len(comp))
		}
		if ref := ReferenceCompressHuf(tc.src); len(ref) != len(comp) {
			t.Errorf("%s: oracle wrote %d bytes, CompressHuf %d", tc.name, len(ref), len(comp))
		}
		if tc.mode == 0xFF {
			continue
		}
		for i, m := range hufBlockModes(t, comp) {
			if m != tc.mode {
				t.Errorf("%s block %d: mode %d, want %d", tc.name, i, m, tc.mode)
			}
		}
	}
}

// TestHufLengthSortOrder holds hufBuildLengths' radix sort to the
// (frequency, symbol) order a comparison sort gives, on which the code
// lengths and so the wire bytes depend: frequencies tied in their low
// or their high byte, frequencies up to the 16-bit cap, and 2 to 256
// symbols.
func TestHufLengthSortOrder(t *testing.T) {
	rng := testRNG(0x3c6ef372fe94f82b)
	blocks := [][]byte{append(bytes.Repeat([]byte{9}, maxBlock-1), 200)}
	for _, n := range []int{2, 300, 4096, maxBlock} {
		for _, mask := range []uint64{1, 0x0F, 0xFF} {
			uniform, wide, geometric := make([]byte, n), make([]byte, n), make([]byte, n)
			for i := 0; i < n; i++ {
				uniform[i] = byte(rng.next() & mask)
				wide[i] = byte((rng.next()&mask + rng.next()&mask + rng.next()&mask) / 3)
				geometric[i] = byte(bits.TrailingZeros64(rng.next()) * 7)
			}
			blocks = append(blocks, uniform, wide, geometric)
		}
	}
	sorted := 0
	for _, block := range blocks {
		st := new(scratch)
		nsym := st.histogram(block)
		if nsym < 2 {
			continue
		}
		st.hufBuildLengths(nsym)
		want := make([]uint32, nsym)
		for i, sym := range st.syms[:nsym] {
			want[i] = uint32(st.hist[sym])<<8 | uint32(sym)
		}
		slices.Sort(want)
		if !slices.Equal(st.hkeys[:nsym], want) {
			t.Fatalf("%d bytes, %d symbols: leaves in order %x, want %x", len(block), nsym, st.hkeys[:nsym], want)
		}
		sorted++
	}
	if sorted < len(blocks)/2 {
		t.Fatalf("only %d of %d blocks reached the sort", sorted, len(blocks))
	}
}

// TestHufSIMDEquivalence decodes every corpus stream with the 4-stream
// kernel forced on and off; the outputs must be bit-identical. On
// hardware without the kernel both runs take the portable path and the
// test degenerates to a round-trip check.
func TestHufSIMDEquivalence(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	for name, src := range hufCorpus() {
		comp := CompressHuf(nil, src)
		cpufeat.SetSIMD(true)
		vec, vecErr := Decompress(nil, comp)
		cpufeat.SetSIMD(false)
		port, portErr := Decompress(nil, comp)
		if vecErr != nil || portErr != nil {
			t.Fatalf("%s: vec err=%v, portable err=%v", name, vecErr, portErr)
		}
		if !bytes.Equal(vec, port) {
			t.Fatalf("%s: kernel and portable decodes differ", name)
		}
		if !bytes.Equal(port, src) {
			t.Fatalf("%s: portable decode mismatch", name)
		}
	}
}

// shortHufBlock is a 224-byte block that selects huf mode although its
// last stream is too short for the 4-stream kernel: the block is 75 %
// zeros (a 1-bit code) plus 56 singletons, and its last quarter is all
// zeros, so stream 3 codes to 7 bytes, below the kernel's 8-byte entry
// bound. The 57-symbol fse table alone costs 173 bytes, so huf wins.
func shortHufBlock() []byte {
	b := make([]byte, 0, 224)
	for i := 0; i < 56; i++ {
		b = append(b, 0, 0, byte(1+i))
	}
	return append(b, make([]byte, 56)...)
}

// TestHufKernelPathCounters pins what the simd.entropy.* counters say
// ran: a block the kernel cannot take counts as kernel_skipped while
// the kernel is on, and only a kernel that is off counts as portable.
func TestHufKernelPathCounters(t *testing.T) {
	short := CompressHuf(nil, shortHufBlock())
	if modes := hufBlockModes(t, short); len(modes) != 1 || modes[0] != modeHUF {
		t.Fatalf("short block modes %v, want one huf block", modes)
	}
	long := CompressHuf(nil, hufCorpus()["mantissa-lane"][:maxBlock])
	if modes := hufBlockModes(t, long); len(modes) != 1 || modes[0] != modeHUF {
		t.Fatalf("long block modes %v, want one huf block", modes)
	}
	if !telemetry.Enabled() {
		t.Skip("telemetry disabled")
	}
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	counts := func(comp []byte) [3]uint64 {
		t.Helper()
		before := [3]uint64{hufVectorCalls.Value(), hufPortableCalls.Value(), hufKernelSkipped.Value()}
		if _, err := Decompress(nil, comp); err != nil {
			t.Fatal(err)
		}
		return [3]uint64{hufVectorCalls.Value() - before[0], hufPortableCalls.Value() - before[1], hufKernelSkipped.Value() - before[2]}
	}
	// {vector, portable, kernel_skipped} per decode.
	if cpufeat.Have().BMI2 {
		if got := counts(short); got != [3]uint64{0, 0, 1} {
			t.Errorf("kernel on, short block: counts %v, want kernel_skipped only", got)
		}
		if got := counts(long); got != [3]uint64{1, 0, 0} {
			t.Errorf("kernel on, long block: counts %v, want vector only", got)
		}
	} else {
		t.Log("no BMI2 kernel on this host: checking the portable counts only")
	}
	cpufeat.SetSIMD(false)
	for name, comp := range map[string][]byte{"short": short, "long": long} {
		if got := counts(comp); got != [3]uint64{0, 1, 0} {
			t.Errorf("kernel off, %s block: counts %v, want portable only", name, got)
		}
	}
}

func TestHufShrinksWideAlphabet(t *testing.T) {
	c := hufCorpus()
	for _, name := range []string{"mantissa-lane", "text", "exp-heavy"} {
		src := c[name]
		comp := CompressHuf(nil, src)
		if len(comp) >= len(src) {
			t.Errorf("%s: expected compression, got %d -> %d bytes", name, len(src), len(comp))
		}
		// The selector must never do worse than the fse-only path by
		// more than the per-block mode slack.
		fse := fseCompress(nil, src)
		if len(comp) > len(fse) {
			t.Errorf("%s: huf-selected stream (%d bytes) larger than fse-only (%d bytes)", name, len(comp), len(fse))
		}
	}
}

func TestHufTruncatedStream(t *testing.T) {
	comp := CompressHuf(nil, hufCorpus()["mantissa-lane"][:8192])
	if modes := hufBlockModes(t, comp); modes[0] != modeHUF {
		t.Fatalf("setup: expected a huf block, got mode %d", modes[0])
	}
	for cut := 1; cut < len(comp); cut += 101 {
		if _, err := Decompress(nil, comp[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
		if _, err := ReferenceDecompress(comp[:cut]); err == nil {
			t.Fatalf("oracle: prefix of %d/%d bytes decoded without error", cut, len(comp))
		}
	}
}

// TestHufCorruptAgreement flips bytes across a huf-bearing stream —
// covering the length table, jump table, and all four bitstreams — and
// requires the fast path and the oracle to agree exactly.
func TestHufCorruptAgreement(t *testing.T) {
	comp := CompressHuf(nil, hufCorpus()["mantissa-lane"][:8192])
	mut := make([]byte, len(comp))
	for pos := 0; pos < len(comp); pos += 11 {
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

// TestHufCorruptRejected hand-builds structurally invalid huf blocks:
// every one must be rejected by both paths, never decoded to bytes.
func TestHufCorruptRejected(t *testing.T) {
	valid := CompressHuf(nil, hufCorpus()["mantissa-lane"][:4096])
	if valid[0] != modeHUF {
		t.Fatalf("setup: expected a huf block, got mode %d", valid[0])
	}
	forge := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	// Offsets inside the block: [0]=mode, [1,2]=rawLen uvarint (4096),
	// then bodyLen uvarint (2 bytes), then the 128-byte nibble table,
	// the 6-byte jump table, and the streams.
	lensOff := 1 + 2 + 2
	jumpOff := lensOff + hufTableBytes
	cases := map[string][]byte{
		"huf-no-body":      {modeHUF, 0x20},
		"huf-body-overrun": {modeHUF, 0x20, 9, 1, 2},
		// rawLen below the encoder minimum (the fse path would store
		// such blocks raw, so a huf header claiming one is a forgery —
		// and would drive stream 3's segment length negative).
		"huf-tiny-rawlen": forge(func(b []byte) { b[1], b[2] = 16, b[2]&0x7F }),
		"huf-nibble-high": forge(func(b []byte) { b[lensOff] = 0xFF }), // length 15 > 11
		"huf-kraft-under": forge(func(b []byte) {
			// Zero out the first present length: the code becomes
			// incomplete, kraft sum below 1<<11.
			for i := lensOff; i < jumpOff; i++ {
				if b[i] != 0 {
					b[i] = 0
					return
				}
			}
		}),
		"huf-jump-overrun": forge(func(b []byte) { b[jumpOff], b[jumpOff+1] = 0xFF, 0xFF }),
	}
	for name, src := range cases {
		if _, err := Decompress(nil, src); err == nil {
			t.Errorf("%s: fast path accepted corrupt input", name)
		}
		if _, err := ReferenceDecompress(src); err == nil {
			t.Errorf("%s: oracle accepted corrupt input", name)
		}
	}
	// Tiny-rawLen also through the bodyLen-intact variant: rebuild the
	// header so the framing stays self-consistent and only the huf body
	// validation can catch it.
	body := valid[1+2+2:]
	tiny := []byte{modeHUF, 31}
	tiny = append(tiny, valid[3:5]...) // original bodyLen uvarint
	tiny = append(tiny, body...)
	if _, err := Decompress(nil, tiny); err == nil {
		t.Error("reframed tiny-rawlen huf block accepted by fast path")
	}
	if _, err := ReferenceDecompress(tiny); err == nil {
		t.Error("reframed tiny-rawlen huf block accepted by oracle")
	}
}

func TestHufDecompressCap(t *testing.T) {
	src := hufCorpus()["mantissa-lane"][:4096]
	comp := CompressHuf(nil, src)
	if _, err := DecompressCap(nil, comp, len(src)); err != nil {
		t.Fatalf("cap == decoded size must succeed: %v", err)
	}
	if _, err := DecompressCap(nil, comp, len(src)-1); err == nil {
		t.Fatal("cap below decoded size must fail")
	}
}

// TestHufZeroAllocSteadyState is the huf-path counterpart of the
// alloc-regression gate: with reused dst buffers, encode (including
// the selector) and decode (including the 4-stream kernel) must not
// allocate.
func TestHufZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	dst := CompressHuf(nil, src)
	comp := append([]byte(nil), dst...)
	out, err := Decompress(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst = CompressHuf(dst[:0], src)
		out, err = Decompress(out[:0], comp)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state huf encode+decode allocates %.1f/op, want 0", allocs)
	}
}

func FuzzHufRoundTrip(f *testing.F) {
	for _, src := range hufCorpus() {
		if len(src) <= 8192 {
			f.Add(src)
		}
	}
	f.Add(hufCorpus()["mantissa-lane"][:4096])
	f.Fuzz(func(t *testing.T, data []byte) {
		comp := CompressHuf(nil, data)
		got, err := Decompress(nil, comp)
		if err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		if n := HufLen(data); n != len(comp) {
			t.Fatalf("HufLen %d, CompressHuf wrote %d bytes", n, len(comp))
		}
		if len(data) <= 4096 {
			if ref := ReferenceCompressHuf(data); !bytes.Equal(comp, ref) {
				t.Fatal("fast and reference compressed bytes differ")
			}
		}
	})
}

func BenchmarkCompressHufWide(b *testing.B) {
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	var dst []byte
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = CompressHuf(dst[:0], src)
	}
}

func BenchmarkDecompressHufWide(b *testing.B) {
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	comp := CompressHuf(nil, src)
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

// BenchmarkDecompressFSEWide decodes the same wide-alphabet payload
// through the fse-only encoder — the direct baseline the huf fast path
// is measured against.
func BenchmarkDecompressFSEWide(b *testing.B) {
	src := hufCorpus()["mantissa-lane"][:maxBlock]
	comp := fseCompress(nil, src)
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
