package codec

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// mkStreamTensor builds a deterministic test tensor with values in
// [0,1] so every family (jpegq included) accepts it.
func mkStreamTensor(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = float32((int64(i)*2654435761)%1000) / 999
	}
	return x
}

// streamCases cover every codec family and both plane framings.
var streamCases = []struct {
	spec  string
	shape []int
}{
	{"dctc:cf=4", []int{2, 1, 16, 16}},
	{"dctc:cf=4", []int{100}},
	{"zfp:rate=8", []int{3, 8, 8}},
	{"zfp:rate=8", []int{100}},
	{"sz:eb=1e-3", []int{3, 5, 7}},
	{"sz:eb=1e-3", []int{64}},
	{"jpegq:q=50", []int{1, 2, 8, 8}},
}

// TestStreamRoundTrip writes one record per case and reads them back,
// requiring each streamed decode to match the v1 container roundtrip of
// the same tensor bit for bit (both paths run the identical backend
// payload, so even the lossy families must agree exactly).
func TestStreamRoundTrip(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10) // force multi-chunk payloads where possible
	want := make([]*tensor.Tensor, len(streamCases))
	specs := make([]string, len(streamCases))
	for i, tc := range streamCases {
		c, err := New(tc.spec)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.spec, err)
		}
		specs[i] = c.Spec()
		x := mkStreamTensor(tc.shape...)
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatalf("WriteTensor(%q): %v", tc.spec, err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatalf("Compress(%q): %v", tc.spec, err)
		}
		if want[i], _, err = DecodeBytes(data); err != nil {
			t.Fatalf("DecodeBytes(%q): %v", tc.spec, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if sw.Records() != len(streamCases) {
		t.Fatalf("Records() = %d, want %d", sw.Records(), len(streamCases))
	}

	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewStreamReader: %v", err)
	}
	for i, tc := range streamCases {
		hdr, err := sr.Next()
		if err != nil {
			t.Fatalf("record %d: Next: %v", i, err)
		}
		if hdr.Spec != specs[i] {
			t.Errorf("record %d: spec %q, want %q", i, hdr.Spec, specs[i])
		}
		if len(hdr.Shape) != len(tc.shape) {
			t.Fatalf("record %d: shape %v, want %v", i, hdr.Shape, tc.shape)
		}
		out, err := sr.Decode(ctx)
		if err != nil {
			t.Fatalf("record %d (%s): Decode: %v", i, tc.spec, err)
		}
		if out.Len() != want[i].Len() {
			t.Fatalf("record %d: %d elements, want %d", i, out.Len(), want[i].Len())
		}
		for j, v := range out.Data() {
			if v != want[i].Data()[j] {
				t.Fatalf("record %d (%s): value %d = %g, container roundtrip %g", i, tc.spec, j, v, want[i].Data()[j])
			}
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next after last record: %v, want io.EOF", err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("repeated Next after EOF: %v, want io.EOF", err)
	}
}

// TestStreamSkip checks that Next auto-skips an unconsumed payload
// (with CRC verification) and that records decode independently.
func TestStreamSkip(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	xs := []*tensor.Tensor{mkStreamTensor(4, 6, 6), mkStreamTensor(2, 5, 5), mkStreamTensor(3, 4, 4)}
	for _, x := range xs {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil { // record 0: never consumed
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil { // auto-skip, then record 1
		t.Fatal(err)
	}
	out, err := sr.Decode(ctx)
	if err != nil {
		t.Fatalf("decoding record 1 after skipping record 0: %v", err)
	}
	if out.Len() != xs[1].Len() {
		t.Fatalf("record 1: %d elements, want %d", out.Len(), xs[1].Len())
	}
	hdr, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.Skip(); err != nil { // explicit skip of record 2
		t.Fatal(err)
	}
	if _, err := sr.Decode(ctx); err == nil {
		t.Fatal("Decode after Skip succeeded; want no-pending-record error")
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next at end: %v, want io.EOF", err)
	}
	_ = hdr

	// A skip reads every chunk of the skipped payload and verifies its
	// CRC: with record 0's last payload byte flipped, both an explicit
	// Skip and the auto-skip in Next fail on that chunk.
	sr, err = NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[sr.markOff-1] ^= 0xFF // the byte before record 1's marker
	for _, explicit := range []bool{true, false} {
		sr, err := NewStreamReader(bytes.NewReader(corrupt))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
		if explicit {
			err = sr.Skip()
		} else {
			_, err = sr.Next()
		}
		if !errors.Is(err, ErrCRC) {
			t.Fatalf("skipping a corrupt payload (explicit Skip %v): err %v, want a CRC failure", explicit, err)
		}
	}
}

// TestStreamWriterLifecycle covers close-twice, write-after-close, and
// the empty stream (header + end marker only).
func TestStreamWriterLifecycle(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteTensor(ctx, c, mkStreamTensor(8)); err == nil {
		t.Fatal("WriteTensor after Close succeeded")
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("empty stream rejected: %v", err)
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next on empty stream: %v, want io.EOF", err)
	}
}

// flakySink fails its failAt-th Write (1-based) once and accepts every
// other Write: a sink that recovers must not let a writer carry on past
// a torn record.
type flakySink struct {
	buf    bytes.Buffer
	writes int
	failAt int
}

func (s *flakySink) Write(p []byte) (int, error) {
	s.writes++
	if s.writes == s.failAt {
		return 0, errors.New("transient")
	}
	return s.buf.Write(p)
}

// TestStreamWriterSinkErrorSticky: a failed sink write poisons the
// serial writer as it does one with wide rounds. Every later WriteTensor
// and Close returns the first failure and writes nothing — no further
// record, no index footer, no end marker — so a reader sees a truncated
// record, never the next record's bytes read as its payload.
func TestStreamWriterSinkErrorSticky(t *testing.T) {
	ctx := context.Background()
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(3, 8, 8)
	// Writes: stream header, record header, chunk header, chunk body.
	sink := &flakySink{failAt: 4}
	sw := NewStreamWriter(sink)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	first := sw.WriteTensor(ctx, c, x)
	if first == nil {
		t.Fatal("WriteTensor into a failing sink returned nil")
	}
	written := sink.buf.Len()
	for i := 0; i < 2; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != first {
			t.Fatalf("WriteTensor %d after the sink failure: %v, want the first failure %v", i, err, first)
		}
	}
	if err := sw.Close(); err != first {
		t.Fatalf("Close after the sink failure: %v, want the first failure %v", err, first)
	}
	if sink.buf.Len() != written {
		t.Fatalf("poisoned writer wrote %d more bytes", sink.buf.Len()-written)
	}
	if sw.Records() != 0 {
		t.Fatalf("Records() = %d after a failed record, want 0", sw.Records())
	}
	sr, err := NewStreamReader(bytes.NewReader(sink.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Decode(ctx); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode of the torn record: err %v, want a truncation", err)
	}
}

// TestPipelineCancellation is the mid-flight abort contract: cancelling
// the context during a 64-plane compression stops the pipeline before
// it claims every plane, and the error satisfies errors.Is(...,
// context.Canceled).
func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const planes = 64
	x := mkStreamTensor(planes, 4, 4)
	var calls atomic.Int64
	_, err := compressPlanes(ctx, planarLayout(noMode, 4, 4, x.Len()), x.Data(), func(p int, plane []float32) ([]byte, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return []byte{byte(p)}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not satisfy errors.Is(context.Canceled)", err)
	}
	if n := calls.Load(); n >= planes {
		t.Fatalf("all %d planes ran despite cancellation after plane 3", n)
	} else {
		t.Logf("cancellation stopped the pipeline after %d of %d planes", n, planes)
	}
}

// TestStreamEntryPointsPreCancelled checks the ctx-taking entry points
// — the serial StreamWriter.WriteTensor and IndexedStream.DecodeAt —
// reject an already-cancelled context without touching a plane.
func TestStreamEntryPointsPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := New("dctc:cf=4")
	if err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(4, 1, 16, 16)
	if err := NewStreamWriter(io.Discard).WriteTensor(ctx, c, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteTensor error %v, want context.Canceled", err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteTensor(context.Background(), c, x); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexedStream(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.DecodeAt(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeAt error %v, want context.Canceled", err)
	}
}

// TestStreamDecodeBoundedMemory is the peak-memory contract: decoding a
// >100 MB multi-tensor stream must allocate roughly the output tensors
// plus one plane-group of transient scratch — never a whole record
// payload. A payload-buffering decoder would allocate ≥ 2× the output
// bytes and trip the bound.
func TestStreamDecodeBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("race shadow memory makes the 100 MB roundtrip impractical")
	}
	if testing.Short() {
		t.Skip("100 MB stream roundtrip skipped in -short mode")
	}
	ctx := context.Background()
	// dctc with cf=blocksize keeps ratio 1, so payload bytes ≈ input
	// bytes: 4 records × [7,1,1024,1024] float32 ≈ 112 MB of stream.
	c, err := New("dctc:cf=8")
	if err != nil {
		t.Fatal(err)
	}
	const records = 4
	shape := []int{7, 1, 1024, 1024}
	x := mkStreamTensor(shape...)
	outBytes := records * 4 * x.Len()

	path := filepath.Join(t.TempDir(), "big.accs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewStreamWriter(f)
	for i := 0; i < records; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 100<<20 {
		t.Fatalf("stream is %d bytes; the test needs ≥ 100 MB to be meaningful", fi.Size())
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sr, err := NewStreamReader(rf)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decoded := 0
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := sr.Decode(ctx)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		// Past the first record (codec compile, first buffers) a record
		// should allocate its output tensor and little else.
		t.Logf("record %d: %d KB allocated (output %d KB), %d GCs",
			decoded, (m1.TotalAlloc-m0.TotalAlloc)>>10, out.SizeBytes()>>10, m1.NumGC-m0.NumGC)
		if out.Len() != x.Len() {
			t.Fatalf("record %d: %d elements, want %d", decoded, out.Len(), x.Len())
		}
		decoded++
	}
	runtime.ReadMemStats(&after)
	if decoded != records {
		t.Fatalf("decoded %d records, want %d", decoded, records)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	// Budget: the four output tensors (unavoidable) plus the reader's
	// plane-group buffer and staging, and slack. Buffering even one
	// record's payload adds 28 MB; buffering each adds ≥ 112 MB.
	budget := uint64(outBytes) + 48<<20
	t.Logf("decoded %d MB across %d records with %d MB total allocation (budget %d MB)",
		outBytes>>20, records, alloc>>20, budget>>20)
	if alloc > budget {
		t.Fatalf("decode allocated %d MB, budget %d MB — a record payload is being buffered", alloc>>20, budget>>20)
	}
}
