package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// stagedRepSpecs maps every registered family to a representative spec,
// used to assert the whole registry composes with the "+huf" stage.
func stagedRepSpecs(t *testing.T) map[string]string {
	t.Helper()
	reps := map[string]string{
		"dctc":     "dctc:cf=4",
		"zfp":      "zfp:rate=8",
		"sz":       "sz:eb=1e-3",
		"jpegq":    "jpegq:q=50",
		"lossless": "lossless:bg=4",
	}
	for _, fam := range Families() {
		if _, ok := reps[fam]; !ok {
			t.Fatalf("family %q has no staged-conformance representative spec; add one", fam)
		}
	}
	return reps
}

// TestStageSpecParsing pins the grammar: '+' splits only before a
// letter, canonical specs round-trip, a spec takes at most one stage
// ("huf", or the decode-only "fse"), and anything else fails with
// ErrBadSpec naming the offender.
func TestStageSpecParsing(t *testing.T) {
	// A '+' inside a numeric option value is not a separator.
	s, err := ParseSpec("sz:eb=1e+3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Family != "sz" || s.Stage != "" {
		t.Fatalf("sz:eb=1e+3 parsed as family %q stage %q", s.Family, s.Stage)
	}
	c, err := New("sz:eb=1e+3")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Spec(); strings.Contains(got, "+h") || !strings.HasPrefix(got, "sz:") {
		t.Fatalf("canonical spec %q", got)
	}

	s, err = ParseSpec("dctc:cf=4,sg+huf")
	if err != nil {
		t.Fatal(err)
	}
	if s.Family != "dctc" || s.Stage != "huf" {
		t.Fatalf("parsed family %q stage %q", s.Family, s.Stage)
	}
	// The decode-only stage still parses and builds: old streams name it.
	for _, spec := range []string{"dctc:cf=4+huf", "dctc:cf=4+fse"} {
		c, err = New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Spec(); got != spec {
			t.Fatalf("canonical staged spec %q, want %q", got, spec)
		}
		// The canonical spec rebuilds the same codec.
		if _, err := New(c.Spec()); err != nil {
			t.Fatalf("canonical spec does not rebuild: %v", err)
		}
	}
	// The record-marker predicate agrees with the split.
	for spec, want := range map[string]bool{"sz:eb=1e+3": false, "zfp:rate=8": false, "dctc:cf=4,sg+huf": true, "lossless:bg=4+fse": true} {
		if got := specHasStages(spec); got != want {
			t.Errorf("specHasStages(%q) = %v, want %v", spec, got, want)
		}
	}

	for spec, name := range map[string]string{
		"zfp:rate=8+nope":        `"nope"`,
		"zfp:rate=8+fse:level=3": `"fse:level=3"`,
		"zfp:rate=8+huf+huf":     "at most one",
		"zfp:rate=8+fse+huf":     "at most one",
	} {
		if _, err := ParseSpec(spec); !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), name) {
			t.Errorf("ParseSpec(%q): %v, want ErrBadSpec naming %s", spec, err, name)
		}
		if _, err := New(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("New(%q): %v, want ErrBadSpec", spec, err)
		}
	}
}

// TestFSEIsDecodeOnly holds every write entry to refusing a "+fse"
// codec: each returns ErrBadSpec naming "+huf" and leaves its sink
// empty, while the same entries accept the "+huf" codec.
func TestFSEIsDecodeOnly(t *testing.T) {
	ctx := context.Background()
	x := conformanceBatch()
	fse, err := New("dctc:cf=4+fse")
	if err != nil {
		t.Fatal(err)
	}
	refused := func(entry string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadSpec) || !strings.Contains(err.Error(), `"+huf"`) {
			t.Errorf("%s with +fse: %v, want ErrBadSpec naming +huf", entry, err)
		}
	}
	data, err := fse.Compress(x)
	refused("Compress", err)
	if data != nil {
		t.Errorf("Compress with +fse returned %d bytes", len(data))
	}
	_, err = RoundTripInto(fse, tensor.New(x.Shape()...), x)
	refused("RoundTripInto", err)
	_, _, err = fse.RoundTrip(x)
	refused("RoundTrip", err)

	var sink bytes.Buffer
	_, err = WriteContainer(&sink, fse.Spec(), x.Shape(), []byte{0, 1, 2})
	refused("WriteContainer", err)
	if sink.Len() != 0 {
		t.Errorf("WriteContainer with +fse wrote %d bytes", sink.Len())
	}
	for _, workers := range []int{1, 3} {
		var sink bytes.Buffer
		sw := NewStreamWriter(&sink)
		if workers > 1 {
			if err := sw.SetConcurrency(workers); err != nil {
				t.Fatal(err)
			}
		}
		err := sw.WriteTensor(ctx, fse, x)
		if workers > 1 {
			// A record that does not close its round is only admitted:
			// its encode failure surfaces at Close, which closes the round.
			if cerr := sw.Close(); err == nil {
				err = cerr
			}
		}
		refused(fmt.Sprintf("StreamWriter.WriteTensor (%d workers)", workers), err)
		if sink.Len() != 0 {
			t.Errorf("StreamWriter (%d workers) with +fse wrote %d bytes", workers, sink.Len())
		}
	}

	huf, err := New("dctc:cf=4+huf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := huf.Compress(x); err != nil {
		t.Errorf("Compress with +huf: %v", err)
	}
}

func TestValidKeys(t *testing.T) {
	keys, err := ValidKeys("zfp")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "planen" || keys[1] != "rate" {
		t.Fatalf("ValidKeys(zfp) = %v", keys)
	}
	if _, err := ValidKeys("nope"); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown family: %v", err)
	}
}

// TestStagedFamilies is the registry-wide staged conformance check:
// every family round-trips with and without "+huf", and the staged
// reconstruction is bit-identical to the unstaged one — the entropy
// stage must be invisible to the decoded values.
func TestStagedFamilies(t *testing.T) {
	x := conformanceBatch()
	for fam, base := range stagedRepSpecs(t) {
		t.Run(fam, func(t *testing.T) {
			plain, err := New(base)
			if err != nil {
				t.Fatal(err)
			}
			staged, err := New(base + "+huf")
			if err != nil {
				t.Fatal(err)
			}
			plainData, err := plain.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			stagedData, err := staged.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			plainOut, _, err := DecodeBytes(plainData)
			if err != nil {
				t.Fatal(err)
			}
			stagedOut, decoded, err := DecodeBytes(stagedData)
			if err != nil {
				t.Fatal(err)
			}
			if want := base + "+huf"; decoded.Spec() != want {
				// Canonical form may reorder options; just require the
				// stage suffix survived the wire.
				if !strings.HasSuffix(decoded.Spec(), "+huf") {
					t.Errorf("staged container decoded with spec %q", decoded.Spec())
				}
			}
			if !bitsEqual(plainOut, stagedOut) {
				t.Error("staged decode differs from unstaged decode")
			}
			// The instance path agrees too.
			viaInstance, err := staged.Decompress(stagedData)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(viaInstance, stagedOut) {
				t.Error("instance Decompress differs from registry Decode")
			}
		})
	}
}

// TestStagedPoolNoAliasing guards the pooled entropy output: decoding
// payload B through the same codec reuses the buffer payload A was
// decoded into, so a family decoder that kept a view of its payload
// would see A's tensor change. Every family's decoded A must survive B
// unchanged and equal a fresh decode.
func TestStagedPoolNoAliasing(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	a := conformanceBatch()
	b := a.Clone()
	for i, v := range b.Data() {
		b.Data()[i] = 1 - v
	}
	for fam, base := range stagedRepSpecs(t) {
		t.Run(fam, func(t *testing.T) {
			c, err := New(base + "+huf")
			if err != nil {
				t.Fatal(err)
			}
			dataA, err := c.Compress(a)
			if err != nil {
				t.Fatal(err)
			}
			dataB, err := c.Compress(b)
			if err != nil {
				t.Fatal(err)
			}
			outA, err := c.Decompress(dataA)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := outA.Clone()
			for k := 0; k < 3; k++ {
				if _, err := c.Decompress(dataB); err != nil {
					t.Fatal(err)
				}
			}
			if !bitsEqual(outA, snapshot) {
				t.Fatal("decoding payload B changed the tensor decoded from payload A")
			}
			fresh, _, err := DecodeBytes(dataA)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(outA, fresh) {
				t.Fatal("payload A's first decode differs from a fresh decode")
			}
		})
	}
}

// TestStagedDecodeAllocBytes is the byte-volume gate on staged
// lossless decode: the entropy output is sized once from its block
// headers into a pooled buffer, so the container, sequential-stream
// and indexed paths each allocate little beyond the output tensor —
// at most 1.2 bytes per output byte on a 2 MiB weight-like matrix.
// Like testing.AllocsPerRun it measures at GOMAXPROCS=1: a goroutine
// that migrates between Ps misses its P's pooled buffer, which would
// count a pool miss as a steady-state allocation.
func TestStagedDecodeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc volumes only hold without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	ctx := context.Background()
	x := tensor.NewRNG(7).Normal(0, 0.02, 1, 1, 512, 1024)
	c, err := New("lossless:bg=4+huf")
	if err != nil {
		t.Fatal(err)
	}
	container, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	const records = 4
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	ix, err := OpenIndexedStream(bytes.NewReader(stream), int64(len(stream)))
	if err != nil {
		t.Fatal(err)
	}

	// Each pass decodes every record once; the first pass warms the
	// pools and codec caches and is not measured.
	paths := []struct {
		name string
		pass func() ([]*tensor.Tensor, error)
	}{
		{"Decompress", func() ([]*tensor.Tensor, error) {
			out, err := c.Decompress(container)
			return []*tensor.Tensor{out}, err
		}},
		{"StreamReader.Decode", func() ([]*tensor.Tensor, error) {
			sr, err := NewStreamReader(bytes.NewReader(stream))
			if err != nil {
				return nil, err
			}
			var outs []*tensor.Tensor
			for {
				if _, err := sr.Next(); err == io.EOF {
					return outs, nil
				} else if err != nil {
					return nil, err
				}
				out, err := sr.Decode(ctx)
				if err != nil {
					return nil, err
				}
				outs = append(outs, out)
			}
		}},
		{"IndexedStream.DecodeAt", func() ([]*tensor.Tensor, error) {
			var outs []*tensor.Tensor
			for i := 0; i < ix.Len(); i++ {
				out, err := ix.DecodeAt(ctx, i)
				if err != nil {
					return nil, err
				}
				outs = append(outs, out)
			}
			return outs, nil
		}},
	}
	for _, p := range paths {
		outs, err := p.pass()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, out := range outs {
			if !bitsEqual(out, x) {
				t.Fatalf("%s: decode is not exact", p.name)
			}
		}
		const passes = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		outBytes := 0
		for k := 0; k < passes; k++ {
			outs, err := p.pass()
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			for _, out := range outs {
				outBytes += out.SizeBytes()
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(outBytes)
		t.Logf("%s: %.3f B allocated per output byte", p.name, perByte)
		if perByte > 1.2 {
			t.Errorf("%s allocates %.3f B per output byte, want ≤ 1.2", p.name, perByte)
		}
	}
}

// TestStagedEncodeAllocBytes is the byte-volume gate on staged
// lossless encode: the byte-group transpose lands in a pooled buffer,
// a StreamWriter's round slot keeps its entropy output buffer across
// records, Compress sizes its container once, and the fused round trip
// sizes the entropy output without writing it. Bounds, in bytes
// allocated per input byte on a 2 MiB weight-like matrix at steady
// state: WriteTensor 0.05 (nothing per record but framing), Compress
// 2.0 (the entropy output and the container) and RoundTripInto 0.05
// (nothing: the lanes are pooled). It measures at GOMAXPROCS=1
// for the reason TestStagedDecodeAllocBytes gives.
func TestStagedEncodeAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc volumes only hold without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	ctx := context.Background()
	x := tensor.NewRNG(7).Normal(0, 0.02, 1, 1, 512, 1024)
	dst := tensor.New(x.Shape()...)
	c, err := New("lossless:bg=4+huf")
	if err != nil {
		t.Fatal(err)
	}
	sw := NewStreamWriter(io.Discard)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		bound float64
		call  func() error
	}{
		{"StreamWriter.WriteTensor", 0.05, func() error { return sw.WriteTensor(ctx, c, x) }},
		{"Compress", 2.0, func() error { _, err := c.Compress(x); return err }},
		{"RoundTripInto", 0.05, func() error { _, err := RoundTripInto(c, dst, x); return err }},
	} {
		// The first calls warm the pools and the writer's slot.
		for k := 0; k < 2; k++ {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		const calls = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < calls; k++ {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(calls*x.SizeBytes())
		t.Logf("%s: %.3f B allocated per input byte (bound %.2f)", tc.name, perByte, tc.bound)
		if perByte > tc.bound {
			t.Errorf("%s allocates %.3f B per input byte, want ≤ %.2f", tc.name, perByte, tc.bound)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(dst, x) {
		t.Fatal("RoundTripInto is not exact")
	}
}

// bitsEqual compares two tensors bit-for-bit (NaN patterns included).
func bitsEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestLosslessExact round-trips adversarial bit patterns — NaNs with
// payloads, infinities, denormals, signed zeros — through every byte
// grouping, with and without the entropy stage. Reconstruction must be
// exact to the bit.
func TestLosslessExact(t *testing.T) {
	x := tensor.New(2, 3, 16, 16)
	fillExactPatterns(x.Data())
	for _, spec := range []string{"lossless", "lossless:bg=1", "lossless:bg=2", "lossless:bg=4", "lossless:bg=4+huf", "lossless:bg=1+huf"} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		back, _, err := DecodeBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !bitsEqual(x, back) {
			t.Errorf("%s: reconstruction is not bit-exact", spec)
		}
		// RoundTrip and RoundTripInto take the staged slow path.
		rt, n, err := c.RoundTrip(x)
		if err != nil {
			t.Fatalf("%s: RoundTrip: %v", spec, err)
		}
		if !bitsEqual(x, rt) || n <= 0 {
			t.Errorf("%s: RoundTrip bits/size wrong (n=%d)", spec, n)
		}
		dst := tensor.New(2, 3, 16, 16)
		if _, err := RoundTripInto(c, dst, x); err != nil {
			t.Fatalf("%s: RoundTripInto: %v", spec, err)
		}
		if !bitsEqual(x, dst) {
			t.Errorf("%s: RoundTripInto not bit-exact", spec)
		}
	}
	if _, err := New("lossless:bg=3"); err == nil || !strings.Contains(err.Error(), `"bg"`) {
		t.Errorf("bg=3 must be rejected: %v", err)
	}
}

// fillExactPatterns fills d with values a numeric path would not keep
// bit for bit: arbitrary bits (NaNs included), +Inf, denormals and −0
// between ordinary values.
func fillExactPatterns(d []float32) {
	rng := uint64(0x243f6a8885a308d3)
	for i := range d {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		switch i % 7 {
		case 0:
			d[i] = math.Float32frombits(uint32(rng)) // arbitrary bits (NaNs included)
		case 1:
			d[i] = float32(math.Inf(1))
		case 2:
			d[i] = math.Float32frombits(1 + uint32(rng)%100) // denormal
		case 3:
			d[i] = math.Float32frombits(0x80000000) // -0
		default:
			d[i] = float32(math.Sin(float64(i))) * float32(rng%1000)
		}
	}
}

// TestLosslessSIMDParity: the byte-group lanes write the same bytes and
// decode the same bits with the vector kernels on and off, for every
// bg, bare and staged, on a record shorter than one 32-value kernel
// step, a ragged one and checkpoint's largest matrix.
func TestLosslessSIMDParity(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	modes := []bool{false}
	if cpufeat.Have().AVX2 {
		modes = append(modes, true)
	}
	for _, shape := range [][]int{{8}, {3, 11}, {1, 1, 512, 1024}} {
		x := tensor.New(shape...)
		fillExactPatterns(x.Data())
		for _, spec := range []string{"lossless:bg=1", "lossless:bg=2", "lossless:bg=4", "lossless:bg=1+huf", "lossless:bg=2+huf", "lossless:bg=4+huf"} {
			c, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			var streams [][]byte
			for _, simd := range modes {
				cpufeat.SetSIMD(simd)
				data, err := c.Compress(x)
				if err != nil {
					t.Fatalf("%s %v simd=%v: %v", spec, shape, simd, err)
				}
				streams = append(streams, data)
			}
			if len(streams) == 2 && !bytes.Equal(streams[0], streams[1]) {
				t.Fatalf("%s %v: the container differs with SIMD on and off", spec, shape)
			}
			for _, simd := range modes {
				cpufeat.SetSIMD(simd)
				back, _, err := DecodeBytes(streams[0])
				if err != nil {
					t.Fatalf("%s %v simd=%v: %v", spec, shape, simd, err)
				}
				if !bitsEqual(x, back) {
					t.Errorf("%s %v simd=%v: reconstruction is not bit-exact", spec, shape, simd)
				}
			}
		}
	}
}

// TestLosslessHufShrinksWeights checks the headline ZipNN-style claim:
// on realistic weight-like data (smooth magnitudes → skewed exponent
// lane) the byte-group transpose plus entropy stage beats raw size.
func TestLosslessHufShrinksWeights(t *testing.T) {
	x := tensor.New(64, 1024)
	d := x.Data()
	rng := uint64(0x9e3779b97f4a7c15)
	for i := range d {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		// Gaussian-ish weights via a crude sum of uniforms, scaled small.
		s := float64(rng%1000)/1000 + float64((rng>>10)%1000)/1000 - 1
		d[i] = float32(s * 0.05)
	}
	c, err := New("lossless:bg=4+huf")
	if err != nil {
		t.Fatal(err)
	}
	_, n, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if n >= x.SizeBytes() {
		t.Errorf("lossless+huf on weight-like data: %d bytes vs raw %d", n, x.SizeBytes())
	}
}

// TestStagedStream runs staged records through the v2 stream writer at
// rounds of four and the read-ahead reader, mixed with unstaged
// records — the entropy stage must ride SetConcurrency/SetReadAhead
// unchanged, and markers must match the specs.
func TestStagedStream(t *testing.T) {
	ctx := context.Background()
	x := conformanceBatch()
	specs := []string{"dctc:cf=4+huf", "zfp:rate=8", "lossless:bg=4+huf", "sz:eb=1e-3+huf"}
	codecs := make([]Codec, len(specs))
	for i, s := range specs {
		c, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		codecs[i] = c
	}

	write := func(conc int) []byte {
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		if conc != 1 {
			if err := sw.SetConcurrency(conc); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range codecs {
			if err := sw.WriteTensor(ctx, c, x); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := write(1)
	pipelined := write(4)
	if !bytes.Equal(serial, pipelined) {
		t.Fatal("pipelined staged stream differs from serial stream")
	}

	// Marker check: staged specs must ride 'S' records, unstaged 'T'.
	if n := bytes.Count(serial, []byte("dctc:cf=4+huf")); n != 1 {
		t.Fatalf("spec appears %d times in stream", n)
	}
	for i, c := range codecs {
		idx := bytes.Index(serial, []byte(c.Spec()))
		if idx < 3 {
			t.Fatalf("spec %q not found in stream", c.Spec())
		}
		marker := serial[idx-3] // marker, then u16 spec length, then spec
		want := byte(recTensor)
		if c.(*codecImpl).stage != "" {
			want = recStaged
		}
		if marker != want {
			t.Errorf("record %d (%s): marker %#x, want %#x", i, c.Spec(), marker, want)
		}
	}

	decodeAll := func(readAhead bool) []*tensor.Tensor {
		sr, err := NewStreamReader(bytes.NewReader(serial))
		if err != nil {
			t.Fatal(err)
		}
		if readAhead {
			if err := sr.SetReadAhead(ctx, 2); err != nil {
				t.Fatal(err)
			}
		}
		var out []*tensor.Tensor
		for i := 0; ; i++ {
			hdr, err := sr.Next()
			if err != nil {
				break
			}
			if hdr.Spec != codecs[i].Spec() {
				t.Fatalf("record %d spec %q, want %q", i, hdr.Spec, codecs[i].Spec())
			}
			got, err := sr.Decode(ctx)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got)
		}
		return out
	}

	plain := decodeAll(false)
	ahead := decodeAll(true)
	if len(plain) != len(specs) || len(ahead) != len(specs) {
		t.Fatalf("decoded %d/%d records", len(plain), len(ahead))
	}
	for i := range plain {
		if !bitsEqual(plain[i], ahead[i]) {
			t.Errorf("record %d: read-ahead decode differs", i)
		}
	}
	// The lossless record reconstructs the batch exactly.
	if !bitsEqual(plain[2], x) {
		t.Error("staged lossless stream record is not bit-exact")
	}
}

// TestStagedMarkerForgery flips a staged record's marker to 'T' (and
// an unstaged one's to 'S'): the reader must reject the mismatch
// before handing the payload to a decoder. The header CRC covers the
// marker, so this also exercises the CRC path; a matching CRC forgery
// is tested by recomputing it.
func TestStagedMarkerForgery(t *testing.T) {
	ctx := context.Background()
	x := conformanceBatch()
	c, err := New("dctc:cf=4+huf")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.WriteTensor(ctx, c, x); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	if stream[8] != recStaged {
		t.Fatalf("first record marker %#x, want 'S'", stream[8])
	}

	// Plain flip: caught by the header CRC.
	forged := append([]byte(nil), stream...)
	forged[8] = recTensor
	sr, err := NewStreamReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("marker flip: %v", err)
	}

	// Flip plus recomputed CRC: caught by the marker/spec consistency
	// check.
	forged = append([]byte(nil), stream...)
	forged[8] = recTensor
	hdrLen := 3 + len(c.Spec()) + 1 + 4*4 + 4 // marker..payload-length
	crc := crc32.ChecksumIEEE(forged[8 : 8+hdrLen])
	binary.LittleEndian.PutUint32(forged[8+hdrLen:], crc)
	sr, err = NewStreamReader(bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("marker flip with recomputed CRC: %v", err)
	}
}

// TestStagedContainerVersion pins the wire versioning: unstaged
// containers stay version 1 byte-for-byte, staged ones are version 3,
// and version/spec mismatches are rejected.
func TestStagedContainerVersion(t *testing.T) {
	x := conformanceBatch()
	plain, _ := New("zfp:rate=8")
	staged, _ := New("zfp:rate=8+huf")
	pd, err := plain.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := staged.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if v := uint16(pd[4]) | uint16(pd[5])<<8; v != containerVersion {
		t.Errorf("unstaged container version %d", v)
	}
	if v := uint16(sd[4]) | uint16(sd[5])<<8; v != containerVersionStaged {
		t.Errorf("staged container version %d", v)
	}
	// Forge the version field down to 1: the spec still carries the
	// stage, so the reader must reject the mismatch.
	forged := append([]byte(nil), sd...)
	forged[4] = containerVersion
	if _, _, err := DecodeBytes(forged); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("staged payload under v1 header: %v", err)
	}
	// And the reverse: an unstaged spec under a staged version.
	forged = append([]byte(nil), pd...)
	forged[4] = containerVersionStaged
	if _, _, err := DecodeBytes(forged); err == nil || !strings.Contains(err.Error(), "does not match spec") {
		t.Errorf("unstaged payload under v3 header: %v", err)
	}
}

// TestStagedCorruptPayload corrupts a staged container's payload (CRC
// recomputed so the corruption reaches the stage): the entropy inverse
// must fail cleanly, never hand garbage to the family decoder
// silently, and never panic.
func TestStagedCorruptPayload(t *testing.T) {
	x := conformanceBatch()
	c, err := New("dctc:cf=4+huf")
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := ReadContainer(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(payload); pos += 7 {
		mut := append([]byte(nil), payload...)
		mut[pos] ^= 0x55
		var buf bytes.Buffer
		if _, err := WriteContainer(&buf, hdr.Spec, hdr.Shape, mut); err != nil {
			t.Fatal(err)
		}
		out, _, err := DecodeBytes(buf.Bytes())
		// Corruption may decode to different-but-valid bytes (entropy
		// streams are dense); what must never happen is a crash or an
		// undetected truncation. Either an error or a full-shape tensor
		// is acceptable.
		if err == nil && !out.SameShape(x) {
			t.Fatalf("pos %d: silent shape corruption", pos)
		}
	}
}
