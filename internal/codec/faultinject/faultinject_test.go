package faultinject_test

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/codec/faultinject"
	"repro/internal/tensor"
)

// mk builds a deterministic test tensor with values in [0,1] (jpegq
// requires the nominal image range; the others don't care).
func mk(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		// int64 arithmetic keeps this compiling (and identical) on
		// 32-bit hosts: the Knuth constant alone overflows a 32-bit int.
		d[i] = float32((int64(i)*2654435761)%1000) / 999
	}
	return x
}

// mkWide builds a tensor whose little-endian float32 bytes follow a
// wide triangular distribution (each byte the average of three lagged
// pseudo-random bytes), the shape of mantissa-lane data that makes the
// entropy encoder pick huf blocks over fse. Arbitrary bit patterns
// (NaNs included) are fine: only the bit-exact lossless family sees it.
func mkWide(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	s := uint64(0x9e3779b97f4a7c15)
	nb := func() uint32 {
		s = s*6364136223846793005 + 1442695040888963407
		a, b, c := s>>16&0xFF, s>>32&0xFF, s>>48&0xFF
		return uint32((a + b + c) / 3)
	}
	for i := range d {
		bits := nb() | nb()<<8 | nb()<<16 | nb()<<24
		d[i] = math.Float32frombits(bits)
	}
	return x
}

// v1Cases cover every codec family and both payload framings (planar
// and flat/packed), so the region scan exercises every mode byte and
// plane-table variant the decoder can meet.
var v1Cases = []struct {
	name  string
	spec  string
	shape []int
	wide  bool // build the tensor with mkWide instead of mk
}{
	{"dctc-planar", "dctc:cf=4", []int{1, 2, 16, 16}, false},
	{"dctc-flat", "dctc:cf=4", []int{100}, false},
	{"zfp-planar", "zfp:rate=8", []int{3, 8, 8}, false},
	{"zfp-flat", "zfp:rate=8", []int{100}, false},
	{"sz-planar", "sz:eb=1e-3", []int{3, 5, 7}, false},
	{"sz-flat", "sz:eb=1e-3", []int{64}, false},
	{"jpegq", "jpegq:q=50", []int{1, 2, 8, 8}, false},
	{"lossless", "lossless:bg=4", []int{3, 5, 7}, false},
	// Staged variants serialize as version-3 containers whose payload
	// scans down to entropy block granularity.
	{"dctc-staged", "dctc:cf=4+huf", []int{100}, false},
	{"sz-staged", "sz:eb=1e-3+huf", []int{64}, false},
	{"lossless-staged", "lossless:bg=4+huf", []int{3, 5, 7}, false},
	{"dctc-staged-huf", "dctc:cf=4+huf", []int{1, 2, 16, 16}, false},
	// Wide triangular bytes per lane: every lane selects huf blocks, so
	// the scan covers code-length tables, jump tables, and all four
	// interleaved bitstreams.
	{"lossless-staged-huf", "lossless:bg=4+huf", []int{4096}, true},
}

// payloadRegionNames returns the payload-level region names the scan
// must produce for a spec: staged payloads carry an umbrella region
// plus per-block framing, lossless lanes are one opaque region,
// everything else is plane-framed.
func payloadRegionNames(spec string) []string {
	if strings.Contains(spec, "+huf") {
		return []string{"payload.staged", "payload.blk0.hdr"}
	}
	if strings.HasPrefix(spec, "lossless") {
		return []string{"payload.lanes"}
	}
	return []string{"payload.plane-count", "payload.plane-table"}
}

// decodeV1 runs the container decoder on one mutant, converting any
// panic into a test failure.
func decodeV1(t *testing.T, desc string, data []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: decode panicked: %v", desc, r)
			err = io.ErrUnexpectedEOF
		}
	}()
	_, _, err = codec.DecodeBytes(data)
	return err
}

// TestV1FaultInjection mutates every structural boundary of a v1
// container and requires the decoder to fail cleanly. The one tolerated
// silent path is the spec string's interior: v1 does not CRC its
// header, so a bit flip there can produce a different-but-valid spec
// that decodes without complaint. (The v2 record header closes exactly
// this hole.)
func TestV1FaultInjection(t *testing.T) {
	for _, tc := range v1Cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := codec.New(tc.spec)
			if err != nil {
				t.Fatalf("New(%q): %v", tc.spec, err)
			}
			x := mk(tc.shape...)
			if tc.wide {
				x = mkWide(tc.shape...)
			}
			data, err := c.Compress(x)
			if err != nil {
				t.Fatalf("Compress: %v", err)
			}
			if _, _, err := codec.DecodeBytes(data); err != nil {
				t.Fatalf("pristine container does not decode: %v", err)
			}
			regions, err := faultinject.V1Regions(data)
			if err != nil {
				t.Fatalf("V1Regions: %v", err)
			}
			want := append([]string{"magic", "version", "speclen", "spec", "rank", "dims", "paylen", "paycrc", "eof"}, payloadRegionNames(tc.spec)...)
			if tc.wide {
				// The wide-byte lanes must actually produce huf blocks, or
				// this case silently stops covering the new wire structures.
				want = append(want, "payload.blk0.huf-lens", "payload.blk0.huf-jump",
					"payload.blk0.huf-s0", "payload.blk0.huf-s3")
			}
			if tc.name == "lossless-staged" {
				// The exponent lane selects an fse block: since "+fse" is
				// decode-only, this case keeps fse block structures under
				// fault injection.
				want = append(want, "payload.blk3.fse-table", "payload.blk3.fse-stream")
			}
			requireRegions(t, regions, want...)
			mutants := 0
			for _, r := range regions {
				for _, m := range faultinject.Mutate(data, r) {
					mutants++
					err := decodeV1(t, m.Desc, m.Data)
					if err == nil && !strings.HasPrefix(m.Desc, "spec/") {
						t.Errorf("%s: corrupted container decoded without error", m.Desc)
					}
				}
			}
			if mutants == 0 {
				t.Fatal("no mutants generated")
			}
		})
	}
}

// requireRegions fails unless every wanted region name is present.
func requireRegions(t *testing.T, regions []faultinject.Region, want ...string) {
	t.Helper()
	have := make(map[string]bool, len(regions))
	for _, r := range regions {
		have[r.Name] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("region scan missing %q (have %d regions)", w, len(regions))
		}
	}
}

// buildStream assembles a five-record v2 stream spanning several codec
// families (and both plane framings). With parallel set, the records
// run through rounds of four instead of rounds of one; with
// indexed set, the writer appends the index footer.
func buildStream(t *testing.T, parallel, indexed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := codec.NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	if parallel {
		if err := sw.SetConcurrency(4); err != nil {
			t.Fatalf("SetConcurrency: %v", err)
		}
	}
	if indexed {
		if err := sw.SetIndex(true); err != nil {
			t.Fatalf("SetIndex: %v", err)
		}
	}
	for _, rec := range []struct {
		spec  string
		shape []int
		wide  bool
	}{
		{"dctc:cf=4", []int{1, 2, 16, 16}, false},
		{"zfp:rate=8", []int{100}, false},
		{"sz:eb=1e-3", []int{3, 5, 7}, false},
		{"dctc:cf=4+huf", []int{1, 2, 16, 16}, false},
		{"lossless:bg=2+huf", []int{3, 5, 7}, false},
		{"lossless:bg=4+huf", []int{4096}, true},
	} {
		c, err := codec.New(rec.spec)
		if err != nil {
			t.Fatalf("New(%q): %v", rec.spec, err)
		}
		x := mk(rec.shape...)
		if rec.wide {
			x = mkWide(rec.shape...)
		}
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			t.Fatalf("WriteTensor(%q): %v", rec.spec, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// readStream fully consumes a v2 stream (decoding every record),
// returning the first error; a panic anywhere fails the test.
func readStream(t *testing.T, desc string, data []byte) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: stream decode panicked: %v", desc, r)
			err = io.ErrUnexpectedEOF
		}
	}()
	sr, err := codec.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := sr.Decode(context.Background()); err != nil {
			return err
		}
	}
}

// TestV2FaultInjection mutates every structural boundary of a v2
// stream. Unlike v1 there is no tolerated silent path: the record
// header (spec and shape included) is CRC-protected, payload bytes are
// chunk-CRC-protected, and framing damage is a structural error. Every
// mutant must fail, and failures inside the record sequence must report
// a stream byte offset.
func TestV2FaultInjection(t *testing.T) {
	data := buildStream(t, false, false)
	if err := readStream(t, "pristine", data); err != nil {
		t.Fatalf("pristine stream does not decode: %v", err)
	}
	regions, err := faultinject.V2Regions(data)
	if err != nil {
		t.Fatalf("V2Regions: %v", err)
	}
	requireRegions(t, regions,
		"header.magic", "header.version", "header.reserved",
		"rec0.marker", "rec0.speclen", "rec0.spec", "rec0.rank", "rec0.dims", "rec0.paylen", "rec0.crc",
		"rec0.chunk0.len", "rec0.chunk0.crc", "rec0.chunk0.data",
		"rec1.marker", "rec2.marker", "rec3.marker", "rec4.marker", "rec5.marker",
		"end.marker", "eof")
	mutants := 0
	for _, r := range regions {
		for _, m := range faultinject.Mutate(data, r) {
			mutants++
			err := readStream(t, m.Desc, m.Data)
			if err == nil {
				t.Errorf("%s: corrupted stream decoded without error", m.Desc)
				continue
			}
			if r.Off >= 8 && !strings.Contains(err.Error(), "offset") {
				t.Errorf("%s: error lacks a stream offset: %v", m.Desc, err)
			}
		}
	}
	if mutants == 0 {
		t.Fatal("no mutants generated")
	}
	t.Logf("verified %d mutants across %d regions", mutants, len(regions))
}

// TestV2ParallelWriterFraming cross-checks the stream writer at rounds
// of four against this package's independent reading of the wire
// format: its output must be byte-identical to the serial
// writer's, scan to exactly the same structural regions, and decode
// cleanly through the read-ahead reader.
func TestV2ParallelWriterFraming(t *testing.T) {
	serial := buildStream(t, false, false)
	parallel := buildStream(t, true, false)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel writer output (%d bytes) differs from serial output (%d bytes)", len(parallel), len(serial))
	}
	sregs, err := faultinject.V2Regions(serial)
	if err != nil {
		t.Fatalf("V2Regions(serial): %v", err)
	}
	pregs, err := faultinject.V2Regions(parallel)
	if err != nil {
		t.Fatalf("V2Regions(parallel): %v", err)
	}
	if len(sregs) != len(pregs) {
		t.Fatalf("serial stream scans to %d regions, parallel to %d", len(sregs), len(pregs))
	}
	for i := range sregs {
		if sregs[i] != pregs[i] {
			t.Errorf("region %d: serial %+v, parallel %+v", i, sregs[i], pregs[i])
		}
	}
	sr, err := codec.NewStreamReader(bytes.NewReader(parallel))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.SetReadAhead(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if _, err := sr.Decode(context.Background()); err != nil {
			t.Fatal(err)
		}
		records++
	}
	if records != 6 {
		t.Fatalf("read-ahead reader decoded %d records, want 6", records)
	}
}

// decodeAll sequentially decodes every record of a pristine stream.
func decodeAll(t *testing.T, data []byte) []*tensor.Tensor {
	t.Helper()
	sr, err := codec.NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []*tensor.Tensor
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				return out
			}
			t.Fatal(err)
		}
		x, err := sr.Decode(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, x)
	}
}

// sameTensor reports bit-exact equality (NaN payloads included, which
// float comparison would miss).
func sameTensor(a, b *tensor.Tensor) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestV2IndexFaultInjection mutates every structural boundary of an
// indexed v2 stream — the footer's framing fields and entries included.
// The sequential reader must reject every mutant with an offset-bearing
// error (the footer is CRC-protected and its trailing framing is
// cross-checked). The random-access reader must never return a wrong
// tensor: for footer-region mutants the records themselves are
// untouched, so OpenIndexedStream must either fail outright or — via
// the footer-CRC fallback rebuild — serve exactly the pristine tensors.
func TestV2IndexFaultInjection(t *testing.T) {
	data := buildStream(t, false, true)
	if err := readStream(t, "pristine", data); err != nil {
		t.Fatalf("pristine indexed stream does not decode: %v", err)
	}
	want := decodeAll(t, data)
	regions, err := faultinject.V2Regions(data)
	if err != nil {
		t.Fatalf("V2Regions: %v", err)
	}
	requireRegions(t, regions,
		"footer.marker", "footer.len", "footer.count",
		"footer.entry0", "footer.entry1", "footer.entry2", "footer.entry3", "footer.entry4", "footer.entry5",
		"footer.crc", "footer.size", "footer.magic",
		"end.marker", "eof")
	mutants := 0
	for _, r := range regions {
		footerRegion := strings.HasPrefix(r.Name, "footer.")
		for _, m := range faultinject.Mutate(data, r) {
			mutants++
			err := readStream(t, m.Desc, m.Data)
			if err == nil {
				t.Errorf("%s: corrupted stream decoded without error", m.Desc)
				continue
			}
			if r.Off >= 8 && !strings.Contains(err.Error(), "offset") {
				t.Errorf("%s: error lacks a stream offset: %v", m.Desc, err)
			}
			// The random-access reader on the same mutant: no panic, and
			// for footer-only damage either a failed open or the pristine
			// tensors via the rebuild fallback.
			outs, openErr := openIndexed(t, m.Desc, m.Data)
			if !footerRegion || openErr != nil {
				continue
			}
			if len(outs) != len(want) {
				t.Errorf("%s: indexed open yields %d records, want %d", m.Desc, len(outs), len(want))
				continue
			}
			for i := range outs {
				if outs[i] == nil {
					continue // per-record decode failed: acceptable, never wrong
				}
				if !sameTensor(outs[i], want[i]) {
					t.Errorf("%s: record %d decodes to a wrong tensor under a mutated footer", m.Desc, i)
				}
			}
		}
	}
	if mutants == 0 {
		t.Fatal("no mutants generated")
	}
	t.Logf("verified %d mutants across %d regions", mutants, len(regions))
}

// openIndexed opens a mutant for random access and decodes every
// record, converting panics into test failures. Per-record failures
// leave a nil slot; an open failure returns the error.
func openIndexed(t *testing.T, desc string, data []byte) (outs []*tensor.Tensor, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: indexed decode panicked: %v", desc, r)
			err = io.ErrUnexpectedEOF
		}
	}()
	ix, err := codec.OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	outs = make([]*tensor.Tensor, ix.Len())
	for i := range outs {
		outs[i], _ = ix.DecodeAt(context.Background(), i)
	}
	return outs, nil
}
