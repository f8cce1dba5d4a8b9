package vle

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/tensor"
)

// refDecodeFlatInto is the symbol-by-symbol reference for
// DecodeFlatInto: the same header and geometry checks, then every token
// through CanonTable.ReadSym and a separate ReadBits for its magnitude
// and sign, with no fused table.
func refDecodeFlatInto(dst []int32, data []byte, blockSize int) error {
	d := &Decoder{}
	r := bitstream.NewReader(data)
	nblocks, size, err := d.readHeader(r)
	if err != nil {
		return err
	}
	if size != blockSize {
		return fmt.Errorf("vle: stream block size %d, want %d", size, blockSize)
	}
	if nblocks < 1 || uint64(nblocks)*uint64(blockSize) != uint64(len(dst)) {
		return fmt.Errorf("vle: stream holds %d×%d values, want %d", nblocks, size, len(dst))
	}
	clear(dst)
	for off := 0; off < len(dst); off += blockSize {
		if err := refDecodeBlock(d, r, dst[off:off+blockSize]); err != nil {
			return err
		}
	}
	return nil
}

func refDecodeBlock(d *Decoder, r *bitstream.Reader, dst []int32) error {
	pos := 0
	for {
		sym, err := d.code.ReadSym(r)
		if err != nil {
			return err
		}
		if sym == 0 {
			return nil
		}
		run, cat := (sym-1)/32, (sym-1)%32
		pos += run
		if cat == 0 {
			continue
		}
		raw, err := r.ReadBits(uint(cat) + 1)
		if err != nil {
			return err
		}
		if pos >= len(dst) {
			return fmt.Errorf("vle: run overflows block (%d ≥ %d)", pos, len(dst))
		}
		v := int32(raw & (1<<uint(cat) - 1))
		if raw>>uint(cat)&1 != 0 {
			v = -v
		}
		dst[pos] = v
		pos++
	}
}

// agreeWithReference decodes data through DecodeFlatInto and the
// reference into n values: both must fail with the same error, or both
// succeed with the same values. DecodeFlatInto's destination starts
// filled with a marker, so every cell must be written.
func agreeWithReference(t *testing.T, data []byte, blockSize, n int) {
	t.Helper()
	got, want := make([]int32, n), make([]int32, n)
	for i := range got {
		got[i] = 0x5A5A5A5A
	}
	errGot := DecodeFlatInto(got, data, blockSize)
	errWant := refDecodeFlatInto(want, data, blockSize)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
		t.Fatalf("DecodeFlatInto err %v, reference err %v (stream %x)", errGot, errWant, data)
	}
	if errGot != nil {
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("position %d: DecodeFlatInto %d, reference %d (stream %x)", i, got[i], want[i], data)
		}
	}
}

// headerValues reads a stream's block size and declared value count
// (block count × block size) straight from its first six bytes, and
// reports whether the count is small enough to allocate.
func headerValues(data []byte) (n, size int, ok bool) {
	if len(data) < 6 {
		return 0, 0, false
	}
	total := uint64(binary.BigEndian.Uint32(data)) * uint64(binary.BigEndian.Uint16(data[4:]))
	return int(total), int(binary.BigEndian.Uint16(data[4:])), total <= 1<<16
}

// twoSided draws n values of ±⌊Exp(scale)⌋ with probability nz of being
// nonzero and probability eob of being the −32768 value that collides
// with EOB — the shape of sz's quantization codes.
func twoSided(rng *tensor.RNG, n int, scale, nz, eob float64) []int32 {
	out := make([]int32, n)
	for i := range out {
		if rng.Float64() >= nz {
			continue
		}
		v := int32(min(-scale*math.Log(1-rng.Float64()), 1<<30))
		if rng.Float64() < 0.5 {
			v = -v
		}
		if rng.Float64() < eob {
			v = symEOB
		}
		out[i] = v
	}
	return out
}

// historicalFlat codes codes, in blocks of size, through the historical
// encoder, which codes −32768 as the end-of-block marker: the streams
// that collision left behind, which both decoders must still read as
// they always have.
func historicalFlat(t *testing.T, codes []int32, size int) []byte {
	t.Helper()
	blocks := make([][]int32, len(codes)/size)
	for b := range blocks {
		blocks[b] = codes[b*size : (b+1)*size]
	}
	data, err := refEncode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFusedMatchesReference: valid streams across value scales, zero
// densities and block sizes decode the same through the fused table as
// through the symbol-by-symbol reference.
func TestFusedMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, scale := range []float64{0.5, 4, 40, 400, 1e5} {
		for _, nz := range []float64{0.05, 0.5, 1} {
			for _, size := range []int{1, 7, 64, 128} {
				codes := twoSided(rng, size*(1+rng.Intn(40)), scale, nz, 0.002)
				data := historicalFlat(t, codes, size)
				agreeWithReference(t, data, size, len(codes))
			}
		}
	}
}

// TestFusedCorruptionMatchesReference: every truncation and every
// single-bit flip of a few valid streams fails, or decodes to the same
// values, on both decoders — the fused path must neither accept a
// stream the reference rejects nor reject one it accepts.
func TestFusedCorruptionMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(12)
	for _, tc := range []struct {
		scale, nz float64
		size      int
	}{{4, 0.9, 16}, {0.7, 0.3, 64}, {300, 1, 8}} {
		codes := twoSided(rng, 4*tc.size, tc.scale, tc.nz, 0.002)
		data := historicalFlat(t, codes, tc.size)
		for n := 0; n < len(data); n++ {
			agreeWithReference(t, data[:n], tc.size, len(codes))
		}
		for bit := 0; bit < 8*len(data); bit++ {
			flipped := append([]byte(nil), data...)
			flipped[bit/8] ^= 0x80 >> (bit % 8)
			agreeWithReference(t, flipped, tc.size, len(codes))
		}
	}
}

// TestFusedWindowStraddle: value symbols whose code plus magnitude and
// sign bits land on both sides of the 11-bit probe — some fit the
// fused table exactly, others fall back — decode like the reference,
// whole and cut short at every byte.
func TestFusedWindowStraddle(t *testing.T) {
	rng := tensor.NewRNG(13)
	// Categories 5..10 with frequencies that give them 1- to 4-bit
	// codes: code+category+1 spans 7..15.
	mags := []int32{20, 40, 100, 300, 700, 31}
	codes := make([]int32, 64*16)
	for i := range codes {
		k := min(int(-math.Log2(1-rng.Float64())), len(mags)-1)
		codes[i] = mags[k] * (1 - 2*int32(rng.Intn(2)))
	}
	data, err := AppendFlat(nil, codes, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The stream must exercise both sides of the window.
	d := &Decoder{}
	if _, _, err := d.readHeader(bitstream.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	fits, spills := 0, 0
	for _, sym := range d.code.Symbols() {
		l, cat := int(d.code.Enc[sym]&0xFF), (int(sym)-1)%32
		if sym == 0 || cat == 0 || l > fastBits {
			continue
		}
		if l+cat+1 <= fastBits {
			fits++
		} else {
			spills++
		}
	}
	if fits == 0 || spills == 0 {
		t.Fatalf("stream has %d fused and %d fallback value symbols, want both", fits, spills)
	}
	agreeWithReference(t, data, 64, len(codes))
	for n := 0; n < len(data); n++ {
		agreeWithReference(t, data[:n], 64, len(codes))
	}
}

// TestFusedSlowTokenMidGroup: one refill serves several fused-table
// tokens from the local window, so a token the table does not hold —
// a rare value whose code and magnitude bits pass the 11-bit probe —
// can fall anywhere in that group; and a stream cut anywhere ends
// within a group of its last refill, with fewer than 8 bytes left to
// load. Every such stream, whole, cut at every byte and with every
// bit flipped, decodes like the reference.
func TestFusedSlowTokenMidGroup(t *testing.T) {
	rng := tensor.NewRNG(15)
	const size = 32
	codes := make([]int32, 24*size)
	for i := range codes {
		codes[i] = int32(rng.Intn(7)) - 3 // short fused tokens, some zeros
		if rng.Intn(9) == 0 {
			// A rare wide value: its category appears a handful of
			// times, so its code is long, and code plus 9–16 magnitude
			// and sign bits never fit the probe.
			codes[i] = int32(1<<(8+rng.Intn(8))+rng.Intn(200)) * (1 - 2*int32(rng.Intn(2)))
		}
	}
	data, err := AppendFlat(nil, codes, size)
	if err != nil {
		t.Fatal(err)
	}
	d := &Decoder{}
	if _, _, err := d.readHeader(bitstream.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	fast, slow := 0, 0
	for _, sym := range d.code.Symbols() {
		if l, cat := int(d.code.Enc[sym]&0xFF), (int(sym)-1)%32; sym != 0 && l+cat+1 > fastBits {
			slow++
		} else {
			fast++
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("stream has %d fused and %d fallback symbols, want both", fast, slow)
	}
	agreeWithReference(t, data, size, len(codes))
	for n := 0; n < len(data); n++ {
		agreeWithReference(t, data[:n], size, len(codes))
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 0x80 >> (bit % 8)
		agreeWithReference(t, flipped, size, len(codes))
	}
}

// TestFusedDeepGolden: the recorded stream with 20-bit codes, past the
// probe width, decodes like the reference.
func TestFusedDeepGolden(t *testing.T) {
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
	for _, tc := range cases {
		if tc.Name != "deep" {
			continue
		}
		data, err := hex.DecodeString(tc.Hex)
		if err != nil {
			t.Fatal(err)
		}
		n, size, _ := headerValues(data)
		agreeWithReference(t, data, size, n)
		return
	}
	t.Fatal("no deep golden case")
}

// TestFusedPureRuns: hand-built headers declaring category-0 symbols
// with runs other than 15 — which no encoder emits, but a header may
// declare — advance the position by their own run on both decoders.
func TestFusedPureRuns(t *testing.T) {
	rng := tensor.NewRNG(14)
	lens := [][2]int{
		{0, 2},            // EOB
		{1, 3},            // run 0, category 0: consumes bits, moves nothing
		{1 + 3*32, 3},     // pure run of 3
		{1 + 7*32, 3},     // pure run of 7
		{1 + 2*32 + 1, 3}, // run 2, then ±1
		{1 + 15*32, 4},    // the encoder's own pure run of 15
		{1 + 4, 4},        // run 0, then a 4-bit magnitude
	}
	for trial := 0; trial < 300; trial++ {
		payload := make([]uint, 8+rng.Intn(120))
		for i := range payload {
			payload[i] = uint(rng.Intn(2))
		}
		size := 1 + rng.Intn(40)
		data := forgeStream(2, size, lens, payload...)
		agreeWithReference(t, data, size, 2*size)
	}
	// Two pure runs of 7 past a 4-value block, then EOB, and a second
	// block of EOB alone: no value overflows the block, so it decodes,
	// as zeros, without error.
	data := forgeStream(2, 4, lens, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0)
	got := []int32{9, 9, 9, 9, 9, 9, 9, 9}
	if err := DecodeFlatInto(got, data, 4); err != nil || slices.ContainsFunc(got, func(v int32) bool { return v != 0 }) {
		t.Fatalf("pure runs past the block, closed by EOB: %v, err %v", got, err)
	}
	agreeWithReference(t, data, 4, 8)
}
