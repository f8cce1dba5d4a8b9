package codec

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/codec/faultinject"
	"repro/internal/tensor"
)

// goldenContainerTensor regenerates the fixed input the golden
// containers were recorded from (same generator as the capture tool).
func goldenContainerTensor(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		// int64 arithmetic keeps this compiling (and identical) on
		// 32-bit hosts: the Knuth constant alone overflows a 32-bit int.
		d[i] = float32((int64(i)*2654435761)%1000) / 999
	}
	return x
}

// TestGoldenContainers holds the ported backends (pooled bit-level
// plane engines, flat entropy paths) to byte-identical v1 container
// output against streams recorded from the pre-port implementations,
// and requires every recorded container to still decode.
func TestGoldenContainers(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1_containers.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name  string `json:"name"`
		Shape []int  `json:"shape"`
		Hex   string `json:"hex"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			c, err := New(tc.Name)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenContainerTensor(tc.Shape...)
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("container bytes diverge from recorded stream (len %d vs %d)", len(data), len(want))
			}
			back, _, err := DecodeBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			if !back.SameShape(x) {
				t.Fatalf("decoded shape %v, want %v", back.Shape(), tc.Shape)
			}
		})
	}
}

// TestRoundTripIntoMatchesSerializePath pins the fused round trip to
// the serialize path for every conformance spec and every lossless
// spec (the decode-only "+fse" included, which must refuse every input
// with errFSEWrite), on an empty tensor, which every family refuses
// with the same error on every path, on the planar
// conformance batch, on a shape no block-aligned fast path covers, on
// rank-1 vectors — one wider than vle's 16-bit block field, which sz
// must refuse on every path — on signed zeros, NaN and a tiny
// residual (sz's −0 codes), and on a [1,2,8,8] batch with a NaN in
// plane 1, which jpegq refuses after plane 0 has passed (so a refused
// in-place round trip must not have written plane 0 back into x):
// RoundTripInto, into a second tensor and in place
// (dst == x), and Codec.RoundTrip must all report exactly the
// serialized payload's length and reproduce its decode bit for bit
// (every family decodes deterministically, so any divergence is a
// second, different codec hiding behind the fast path).
func TestRoundTripIntoMatchesSerializePath(t *testing.T) {
	flat := tensor.New(5, 7, 9)
	vec, wide := tensor.New(37), tensor.New(1<<16)
	for i := range flat.Data() {
		flat.Data()[i] = float32(math.Sin(float64(i) / 11))
	}
	for _, v := range []*tensor.Tensor{vec, wide} {
		for i := range v.Data() {
			v.Data()[i] = float32(math.Cos(float64(i) / 5))
		}
	}
	nanPlane1 := tensor.Full(0.3, 1, 2, 8, 8)
	nanPlane1.Data()[64+9] = float32(math.NaN())
	inputs := []*tensor.Tensor{conformanceBatch(), flat, vec, wide, signedZeros(), nanPlane1, tensor.New(0, 4)}
	// Every lossless spec, whose fused path copies x and sizes the
	// payload, and the decode-only "+fse", which has no fused path and
	// must refuse every write.
	specs := []string{"lossless:bg=1", "lossless:bg=2", "lossless:bg=4", "lossless:bg=1+huf", "lossless:bg=2+huf", "lossless:bg=4+fse"}
	for _, tc := range conformanceSpecs {
		specs = append(specs, tc.spec)
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			c, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			impl := c.(*codecImpl)
			for _, x := range inputs {
				// encodePayload/decodePayload run the entropy stage (if any)
				// on top of the backend, so staged specs compare against
				// the bytes that actually hit the wire.
				payload, encErr := impl.encodePayload(context.Background(), nil, x)
				if encErr != nil {
					// A shape the family rejects must be rejected by the
					// fused paths too, with the same error: a family
					// refuses a shape one way only.
					if _, err := RoundTripInto(c, tensor.New(x.Shape()...), x); err == nil {
						t.Errorf("%v: RoundTripInto accepted a shape the serialize path rejects", x.Shape())
					} else if err.Error() != encErr.Error() {
						t.Errorf("%v: RoundTripInto refuses with %q, the serialize path with %q", x.Shape(), err, encErr)
					} else if strings.HasSuffix(spec, "+fse") && !errors.Is(err, errFSEWrite) {
						t.Errorf("%v: RoundTripInto refuses a +fse spec with %v, want errFSEWrite", x.Shape(), err)
					}
					// Refused in place, x must come back untouched.
					inPlace := x.Clone()
					if _, err := RoundTripInto(c, inPlace, inPlace); err == nil {
						t.Errorf("%v: in-place RoundTripInto accepted a shape the serialize path rejects", x.Shape())
					}
					for i, v := range x.Data() {
						if math.Float32bits(inPlace.Data()[i]) != math.Float32bits(v) {
							t.Fatalf("%v position %d: a refused in-place RoundTripInto changed %g to %g", x.Shape(), i, v, inPlace.Data()[i])
						}
					}
					if _, _, err := c.RoundTrip(x); err == nil {
						t.Errorf("%v: RoundTrip accepted a shape the serialize path rejects", x.Shape())
					}
					continue
				}
				ref, err := impl.decodePayload(context.Background(), payload, x.Shape())
				if err != nil {
					t.Fatal(err)
				}
				dst := tensor.New(x.Shape()...)
				n, err := RoundTripInto(c, dst, x)
				if err != nil {
					t.Fatal(err)
				}
				rt, rn, err := c.RoundTrip(x)
				if err != nil {
					t.Fatal(err)
				}
				inPlace := x.Clone()
				pn, err := RoundTripInto(c, inPlace, inPlace)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(payload) || rn != len(payload) || pn != len(payload) {
					t.Errorf("%v: RoundTripInto size %d (in place %d), RoundTrip size %d, serialize path payload %d", x.Shape(), n, pn, rn, len(payload))
				}
				if !rt.SameShape(x) {
					t.Errorf("RoundTrip shape %v, want %v", rt.Shape(), x.Shape())
				}
				for i, v := range ref.Data() {
					want := math.Float32bits(v)
					if math.Float32bits(dst.Data()[i]) != want || math.Float32bits(rt.Data()[i]) != want || math.Float32bits(inPlace.Data()[i]) != want {
						t.Fatalf("%v position %d: RoundTripInto %g (in place %g), RoundTrip %g, serialize path %g", x.Shape(), i, dst.Data()[i], inPlace.Data()[i], rt.Data()[i], v)
					}
				}
			}
		})
	}
}

// signedZeros is a [2,4] plane on which sz:eb=1e-3 meets a zero
// prediction and a zero code: the NaN predicts nothing, so cell 1's −0
// is stored raw, and cell 2's −1e-9 quantizes to a −0 code under that
// −0 prediction. The decoder replays the code as the integer 0, adding
// +0, so cells 2 and 3 decode to +0; a fused round trip that added
// step·(−0) would write −0 there.
func signedZeros() *tensor.Tensor {
	nz := float32(math.Copysign(0, -1))
	return tensor.FromSlice([]float32{float32(math.NaN()), nz, -1e-9, -1e-9, 0.5, nz, -1e-9, 2}, 2, 4)
}

// TestRoundTripIntoAllocs is the allocs/op gate on the registry round
// trip: every family bare and through the entropy stage, on one
// 3-channel 256×256 sample — and zfp on a vector and an unaligned
// tensor, which it packs into padded planes — with a single-worker
// pipeline (the multi-worker pipeline spends a few allocations on the
// fan-out). Each bound is the steady-state count plus max(4, 10 %) of
// headroom for pool warm-up jitter; the fused round trips — the plane
// engine's zfp, jpegq and sz, and lossless bare and "+huf" — allocate
// nothing at all.
func TestRoundTripIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	sample := tensor.NewRNG(1).Uniform(0, 1, 1, 3, 256, 256)
	for _, tc := range []struct {
		spec  string
		max   float64
		shape []int // nil: the 3-channel sample
	}{
		{"zfp:rate=8", 0, nil},
		// Shapes zfp packs into zero-padded planes.
		{"zfp:rate=8", 0, []int{1000}},
		{"zfp:rate=8", 0, []int{5, 7, 9}},
		{"zfp:rate=8+huf", 27, nil},
		{"jpegq:q=50", 0, nil},
		{"jpegq:q=50+huf", 24, nil},
		{"sz:eb=1e-3", 0, nil},
		{"sz:eb=1e-3+huf", 30, nil},
		{"dctc:cf=4", 26, nil},
		{"dctc:cf=4+huf", 27, nil},
		{"lossless:bg=4", 0, nil},
		{"lossless:bg=4+huf", 0, nil},
	} {
		c, err := New(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		x := sample
		if tc.shape != nil {
			x = tensor.NewRNG(2).Uniform(0, 1, tc.shape...)
		}
		dst := tensor.New(x.Shape()...)
		if _, err := RoundTripInto(c, dst, x); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := RoundTripInto(c, dst, x); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %v: %v allocs/op (bound %v)", tc.spec, x.Shape(), allocs, tc.max)
		if allocs > tc.max {
			t.Errorf("%s %v: RoundTripInto allocates %v/op, want ≤ %v", tc.spec, x.Shape(), allocs, tc.max)
		}
	}
}

// goldenHufCases is the fixed spec/shape matrix the huf golden fixture
// records: every family through "+huf", including the per-lane
// lossless framings whose block layout (one sequence per byte-group
// lane) is part of the wire contract.
var goldenHufCases = []struct {
	Name  string `json:"name"`
	Shape []int  `json:"shape"`
}{
	{"dctc:cf=4+huf", []int{2, 3, 16, 16}},
	{"zfp:rate=8+huf", []int{1, 2, 16, 16}},
	{"sz:eb=1e-3+huf", []int{3, 5, 7}},
	{"jpegq:q=50+huf", []int{1, 2, 8, 8}},
	{"lossless:bg=1+huf", []int{2, 3, 16, 16}},
	{"lossless:bg=2+huf", []int{2, 3, 16, 16}},
	{"lossless:bg=4+huf", []int{2, 3, 16, 16}},
	// bg=1 keeps the whole payload one lane, so 17·1024 elements
	// (68 KiB) pins a lane spanning multiple entropy blocks without a
	// megabyte-scale fixture.
	{"lossless:bg=1+huf", []int{17, 1024}},
}

// TestGoldenHufContainers pins "+huf" container output byte-for-byte:
// the huf block format, the fse-vs-huf selection rule, and the
// per-lane lossless block sequences are all wire contracts — an
// innocent change to any of them breaks recorded streams in the field.
// Regenerate with GOLDEN_UPDATE=1 only for a deliberate, documented
// format change.
func TestGoldenHufContainers(t *testing.T) {
	const path = "testdata/golden_huf_containers.json"
	type fixture struct {
		Name  string `json:"name"`
		Shape []int  `json:"shape"`
		Hex   string `json:"hex"`
	}
	if os.Getenv("GOLDEN_UPDATE") != "" {
		var out []fixture
		for _, tc := range goldenHufCases {
			c, err := New(tc.Name)
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.Compress(goldenContainerTensor(tc.Shape...))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fixture{tc.Name, tc.Shape, hex.EncodeToString(data)})
		}
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fixture
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(goldenHufCases) {
		t.Fatalf("fixture has %d cases, test expects %d", len(cases), len(goldenHufCases))
	}
	for i, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			c, err := New(tc.Name)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenContainerTensor(tc.Shape...)
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("case %d: container bytes diverge from recorded stream (len %d vs %d)", i, len(data), len(want))
			}
			back, decoded, err := DecodeBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Spec() != c.Spec() || !back.SameShape(x) {
				t.Fatalf("decoded spec %q shape %v", decoded.Spec(), back.Shape())
			}
		})
	}
}

// goldenFSETensor regenerates the input golden_fse.json was recorded
// from: four levels in runs of 64 elements, from integer arithmetic
// only, so the input is the same on every platform and the recorded
// payloads hold fse blocks, not just raw ones.
func goldenFSETensor(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = float32((i/64)%4) / 4
	}
	return x
}

// goldenFSEFixture is testdata/golden_fse.json (see TestGoldenFSEDecodes).
type goldenFSEFixture struct {
	Containers []struct {
		Name  string `json:"name"`
		Shape []int  `json:"shape"`
		Hex   string `json:"hex"`
	} `json:"containers"`
	Stream struct {
		Records []struct {
			Spec  string `json:"spec"`
			Shape []int  `json:"shape"`
		} `json:"records"`
		Hex string `json:"hex"`
	} `json:"stream"`
}

func readGoldenFSE(tb testing.TB) goldenFSEFixture {
	tb.Helper()
	raw, err := os.ReadFile("testdata/golden_fse.json")
	if err != nil {
		tb.Fatal(err)
	}
	var fixture goldenFSEFixture
	if err := json.Unmarshal(raw, &fixture); err != nil {
		tb.Fatal(err)
	}
	return fixture
}

// loadGoldenFSE returns the recorded "+fse" containers and indexed
// stream as bytes — the only source of "+fse" payloads now that no
// writer produces them.
func loadGoldenFSE(tb testing.TB) (containers [][]byte, stream []byte) {
	tb.Helper()
	fixture := readGoldenFSE(tb)
	for _, c := range fixture.Containers {
		data, err := hex.DecodeString(c.Hex)
		if err != nil {
			tb.Fatal(err)
		}
		containers = append(containers, data)
	}
	stream, err := hex.DecodeString(fixture.Stream.Hex)
	if err != nil {
		tb.Fatal(err)
	}
	return containers, stream
}

// TestGoldenFSEDecodes holds the decode-only "+fse" stage to payloads
// the retired fse-only encoder wrote. testdata/golden_fse.json was
// recorded from that encoder before it was removed, so it cannot be
// regenerated: containers for every family (lossless at bg=1/2/4, and
// a 68 KiB bg=1 payload spanning two entropy blocks) and one indexed
// v2 stream of 'S' records covering every family. Every entry must
// decode — containers through DecodeBytes, records through
// StreamReader and IndexedStream.DecodeAt — to the bits of the bare
// spec's decode and of a fresh "+huf" round trip of the same input,
// and lossless entries to the input's exact bits.
func TestGoldenFSEDecodes(t *testing.T) {
	fixture := readGoldenFSE(t)
	if len(fixture.Containers) != 8 || len(fixture.Stream.Records) != 5 {
		t.Fatalf("fixture holds %d containers and %d records, want 8 and 5", len(fixture.Containers), len(fixture.Stream.Records))
	}
	// want returns the bits every path must decode an fse entry to.
	want := func(t *testing.T, spec string, shape []int) *tensor.Tensor {
		t.Helper()
		base, stage := splitSpecStage(spec)
		if stage != "fse" {
			t.Fatalf("fixture entry %q is not an fse entry", spec)
		}
		x := goldenFSETensor(shape...)
		var ref *tensor.Tensor
		for _, s := range []string{base, base + "+huf"} {
			c, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := DecodeBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = out
			} else if !bitsEqual(ref, out) {
				t.Fatalf("%s and %s decode to different bits", base, s)
			}
		}
		if strings.HasPrefix(spec, "lossless") && !bitsEqual(ref, x) {
			t.Fatalf("%s does not reproduce its input exactly", base)
		}
		return ref
	}

	fseBlocks := 0
	for _, tc := range fixture.Containers {
		t.Run(tc.Name, func(t *testing.T) {
			data, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			out, c, err := DecodeBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(c.Spec(), "+fse") {
				t.Errorf("container decoded with spec %q", c.Spec())
			}
			if !bitsEqual(out, want(t, tc.Name, tc.Shape)) {
				t.Error("fse container decodes to different bits than the bare and +huf decodes")
			}
			regs, err := faultinject.V1Regions(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range regs {
				if strings.HasSuffix(r.Name, ".fse-table") {
					fseBlocks++
				}
			}
		})
	}
	if fseBlocks == 0 {
		t.Error("no fixture container holds an fse block")
	}

	t.Run("stream", func(t *testing.T) {
		ctx := context.Background()
		data, err := hex.DecodeString(fixture.Stream.Hex)
		if err != nil {
			t.Fatal(err)
		}
		refs := make([]*tensor.Tensor, len(fixture.Stream.Records))
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range fixture.Stream.Records {
			hdr, err := sr.Next()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !strings.HasSuffix(hdr.Spec, "+fse") {
				t.Fatalf("record %d: spec %q", i, hdr.Spec)
			}
			out, err := sr.Decode(ctx)
			if err != nil {
				t.Fatalf("record %d (%s): %v", i, rec.Spec, err)
			}
			refs[i] = want(t, rec.Spec, rec.Shape)
			if !bitsEqual(out, refs[i]) {
				t.Errorf("record %d (%s): StreamReader decode differs", i, rec.Spec)
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("after last record: %v, want EOF", err)
		}
		ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if ix.Rebuilt() || ix.Len() != len(refs) {
			t.Fatalf("index rebuilt=%v with %d entries, want the footer's %d", ix.Rebuilt(), ix.Len(), len(refs))
		}
		for i, ref := range refs {
			out, err := ix.DecodeAt(ctx, i)
			if err != nil {
				t.Fatalf("DecodeAt(%d): %v", i, err)
			}
			if !bitsEqual(out, ref) {
				t.Errorf("DecodeAt(%d): decode differs", i)
			}
		}
	})
}

// goldenStreamRecords is the fixed record sequence of the recorded v2
// stream: every family, both plane framings, all unstaged (so the
// stream predates — and must survive — the v3 stage-chain refactor).
var goldenStreamRecords = []struct {
	Spec  string `json:"spec"`
	Shape []int  `json:"shape"`
}{
	{"dctc:cf=4", []int{1, 2, 16, 16}},
	{"zfp:rate=8", []int{100}},
	{"sz:eb=0.001", []int{3, 5, 7}}, // canonical form of eb=1e-3
	{"jpegq:q=50", []int{1, 2, 8, 8}},
}

// writeGoldenStream re-encodes the fixed record sequence with today's
// writer (serial path, 4 KiB chunks — the recording configuration).
func writeGoldenStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	for _, rec := range goldenStreamRecords {
		c, err := New(rec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteTensor(context.Background(), c, goldenContainerTensor(rec.Shape...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenStream holds unstaged v2 stream output byte-identical to
// the recorded fixture across the v3 stage-chain refactor, and requires
// the (v3-capable) reader to still decode every recorded record with
// its 'T' marker intact. Regenerate with GOLDEN_UPDATE=1 only for a
// deliberate, documented format change.
func TestGoldenStream(t *testing.T) {
	const path = "testdata/golden_v2_stream.json"
	if os.Getenv("GOLDEN_UPDATE") != "" {
		blob, err := json.MarshalIndent(struct {
			Records any    `json:"records"`
			Hex     string `json:"hex"`
		}{goldenStreamRecords, hex.EncodeToString(writeGoldenStream(t))}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fixture struct {
		Records []struct {
			Spec  string `json:"spec"`
			Shape []int  `json:"shape"`
		} `json:"records"`
		Hex string `json:"hex"`
	}
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(fixture.Hex)
	if err != nil {
		t.Fatal(err)
	}
	if got := writeGoldenStream(t); !bytes.Equal(got, want) {
		t.Fatalf("stream bytes diverge from recording (len %d vs %d)", len(got), len(want))
	}
	if len(fixture.Records) != len(goldenStreamRecords) {
		t.Fatalf("fixture has %d records, test expects %d", len(fixture.Records), len(goldenStreamRecords))
	}

	sr, err := NewStreamReader(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range fixture.Records {
		hdr, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if hdr.Spec != rec.Spec {
			t.Fatalf("record %d: spec %q, recorded %q", i, hdr.Spec, rec.Spec)
		}
		x := goldenContainerTensor(rec.Shape...)
		out, err := sr.Decode(context.Background())
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, rec.Spec, err)
		}
		if !out.SameShape(x) {
			t.Fatalf("record %d: shape %v, recorded %v", i, out.Shape(), rec.Shape)
		}
		// The recorded payload must decode to exactly what decoding a
		// fresh container of the same spec produces (decode paths are
		// deterministic).
		c, err := New(rec.Spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(ref) {
			t.Errorf("record %d (%s): stream decode diverges from container decode", i, rec.Spec)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after last record: %v, want EOF", err)
	}
}
