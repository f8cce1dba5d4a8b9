package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// parallelCases mixes codec families, shapes, and payload sizes so the
// pipelined writer is exercised across records that encode at very
// different speeds (ordering would scramble under a naive pool).
var parallelCases = []struct {
	spec  string
	shape []int
}{
	{"dctc:cf=4", []int{2, 1, 16, 16}},
	{"zfp:rate=8", []int{3, 8, 8}},
	{"sz:eb=1e-3", []int{3, 5, 7}},
	{"jpegq:q=50", []int{1, 2, 8, 8}},
	{"dctc:cf=4", []int{100}},
	{"zfp:rate=8", []int{4, 32, 32}},
	{"sz:eb=1e-3", []int{64}},
	{"zfp:rate=8", []int{100}},
	{"dctc:cf=4", []int{1, 1, 32, 32}},
	{"jpegq:q=90", []int{2, 1, 8, 8}},
	{"sz:eb=1e-2", []int{5, 6, 6}},
	{"zfp:rate=16", []int{2, 16, 16}},
}

// writeParallelStream writes parallelCases through sw and closes it.
func writeParallelStream(t *testing.T, sw *StreamWriter) {
	t.Helper()
	ctx := context.Background()
	for _, tc := range parallelCases {
		c, err := New(tc.spec)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.spec, err)
		}
		if err := sw.WriteTensor(ctx, c, mkStreamTensor(tc.shape...)); err != nil {
			t.Fatalf("WriteTensor(%q): %v", tc.spec, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestParallelStreamWriterByteIdentical is the tentpole contract: the
// pipelined writer's output must equal the serial writer's byte for
// byte, across worker counts and under a byte budget tight enough to
// force back-pressure mid-stream.
func TestParallelStreamWriterByteIdentical(t *testing.T) {
	var serial bytes.Buffer
	sw := NewStreamWriter(&serial)
	sw.SetChunkSize(4 << 10)
	writeParallelStream(t, sw)

	for _, workers := range []int{0, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var par bytes.Buffer
			pw := NewStreamWriter(&par)
			pw.SetChunkSize(4 << 10)
			if err := pw.SetConcurrency(workers); err != nil {
				t.Fatal(err)
			}
			pw.eng.budget = 8 << 10
			writeParallelStream(t, pw)
			if !bytes.Equal(par.Bytes(), serial.Bytes()) {
				t.Fatalf("parallel stream (%d bytes) differs from serial stream (%d bytes)", par.Len(), serial.Len())
			}
			if pw.Records() != len(parallelCases) {
				t.Fatalf("Records() = %d, want %d", pw.Records(), len(parallelCases))
			}
		})
	}
}

// slowSink delays every Write, modeling a saturated disk or socket so
// the emitter falls behind the encoders.
type slowSink struct {
	delay time.Duration
	buf   bytes.Buffer
}

func (s *slowSink) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.buf.Write(p)
}

// TestStreamWriterBackPressure drives the pipelined writer into a slow
// sink with a small in-flight budget and verifies the admission gate
// held: the engine's high-water mark never exceeded the budget, i.e. a
// stalled emitter blocks WriteTensor instead of queueing payloads.
func TestStreamWriterBackPressure(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(4, 16, 16) // 4 KiB uncompressed
	const budget = 10 << 10        // room for two records, never three
	sink := &slowSink{delay: 2 * time.Millisecond}
	sw := NewStreamWriter(sink)
	if err := sw.SetConcurrency(4); err != nil {
		t.Fatal(err)
	}
	sw.eng.budget = budget
	ctx := context.Background()
	const records = 12
	for i := 0; i < records; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	hi := sw.eng.maxInFlightBytes()
	if hi > budget {
		t.Fatalf("in-flight high-water mark %d bytes exceeds the %d-byte budget", hi, budget)
	}
	if hi < int64(x.SizeBytes()) {
		t.Fatalf("high-water mark %d below a single record's %d bytes — the gate never admitted anything?", hi, x.SizeBytes())
	}
	sr, err := NewStreamReader(bytes.NewReader(sink.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if _, err := sr.Decode(ctx); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next after last record: %v, want io.EOF", err)
	}
}

// gateBackend is a test backend whose encode blocks until the job's
// context dies or the gate opens, counting encode starts — the probe
// for "workers stop claiming work after a failure".
type gateBackend struct {
	starts atomic.Int64
	gate   chan struct{}
}

func (g *gateBackend) name() string   { return "gate" }
func (g *gateBackend) ratio() float64 { return 1 }
func (g *gateBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	g.starts.Add(1)
	select {
	case <-g.gate:
		return []byte{1, 2, 3}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
func (g *gateBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	return tensor.New(shape...), nil
}

// TestParallelStreamWriterCancellation cancels the context while the
// pipeline is saturated and verifies the abort contract: blocked and
// subsequent WriteTensor calls fail with an error wrapping
// context.Canceled, the error is sticky through Close, workers stop
// starting encodes, and nothing is written after the failure.
func TestParallelStreamWriterCancellation(t *testing.T) {
	g := &gateBackend{gate: make(chan struct{})}
	c := &codecImpl{spec: "dctc:cf=4", b: g}
	x := mkStreamTensor(4, 4)

	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	const workers = 2
	if err := sw.SetConcurrency(workers); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Fill the pipeline: the job quota is 2×workers, so these all admit
	// without blocking while every encode sits parked on the gate.
	for i := 0; i < 2*workers; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatalf("record %d admitted with error: %v", i, err)
		}
	}
	// The next submission blocks on the quota; cancel while it waits.
	errCh := make(chan error, 1)
	go func() {
		errCh <- sw.WriteTensor(ctx, c, x)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked WriteTensor returned %v, want context.Canceled", err)
	}
	// The sticky failure must surface on later calls and on Close.
	var stickyErr error
	for i := 0; i < 100; i++ {
		if stickyErr = sw.WriteTensor(context.Background(), c, x); stickyErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(stickyErr, context.Canceled) {
		t.Fatalf("WriteTensor after cancellation returned %v, want sticky context.Canceled", stickyErr)
	}
	if err := sw.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close returned %v, want sticky context.Canceled", err)
	}
	// Workers claimed at most the encodes that had started before the
	// cancellation; the quota'd tail jobs were aborted unencoded.
	if n := g.starts.Load(); n > workers {
		t.Fatalf("%d encodes started; want at most %d (workers must stop claiming after the failure)", n, workers)
	}
	// The poisoned stream carries no end marker (truncation is visible).
	if buf.Len() != 0 && buf.Bytes()[buf.Len()-1] == recEnd {
		t.Fatal("poisoned stream ends with a clean end-of-stream marker")
	}
}

// errSink fails after n bytes, modeling a full disk mid-stream.
type errSink struct {
	n       int
	written int
}

func (s *errSink) Write(p []byte) (int, error) {
	if s.written+len(p) > s.n {
		return 0, fmt.Errorf("sink full after %d bytes", s.written)
	}
	s.written += len(p)
	return len(p), nil
}

// TestParallelStreamWriterSinkError verifies a sink failure poisons the
// pipelined writer exactly like an encode failure.
func TestParallelStreamWriterSinkError(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(4, 16, 16)
	sw := NewStreamWriter(&errSink{n: 600})
	if err := sw.SetConcurrency(3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var firstErr error
	for i := 0; i < 50; i++ {
		if firstErr = sw.WriteTensor(ctx, c, x); firstErr != nil {
			break
		}
	}
	closeErr := sw.Close()
	if firstErr == nil && closeErr == nil {
		t.Fatal("sink failure surfaced neither on WriteTensor nor on Close")
	}
	if closeErr == nil {
		t.Fatal("Close on a poisoned writer returned nil")
	}
	if err := sw.WriteTensor(ctx, c, x); err == nil {
		t.Fatal("WriteTensor after Close returned nil")
	}
}

// TestStreamWriterConfigAfterStart locks the configuration window:
// concurrency is immutable once the first record is in.
func TestStreamWriterConfigAfterStart(t *testing.T) {
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetConcurrency(2); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteTensor(context.Background(), c, mkStreamTensor(2, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetConcurrency(4); err == nil {
		t.Fatal("SetConcurrency after first WriteTensor succeeded")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamReadAhead verifies the prefetching reader returns exactly
// the records and errors the synchronous reader does, across Decode,
// Skip, and the io.EOF tail contract.
func TestStreamReadAhead(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	writeParallelStream(t, sw)
	ctx := context.Background()

	// Reference pass: synchronous reader.
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want []*tensor.Tensor
	for {
		if _, err := sr.Next(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		out, err := sr.Decode(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out)
	}

	for _, depth := range []int{1, 3} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			ra, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := ra.SetReadAhead(ctx, depth); err != nil {
				t.Fatal(err)
			}
			if err := ra.SetReadAhead(ctx, depth); err == nil {
				t.Fatal("second SetReadAhead succeeded")
			}
			for i, w := range want {
				hdr, err := ra.Next()
				if err != nil {
					t.Fatalf("record %d: Next: %v", i, err)
				}
				if hdr.Spec == "" || hdr.Elems() != w.Len() {
					t.Fatalf("record %d: header %+v, want %d elements", i, hdr, w.Len())
				}
				if i == 3 {
					if err := ra.Skip(); err != nil {
						t.Fatalf("record %d: Skip: %v", i, err)
					}
					continue
				}
				out, err := ra.Decode(ctx)
				if err != nil {
					t.Fatalf("record %d: Decode: %v", i, err)
				}
				for j, v := range out.Data() {
					if v != w.Data()[j] {
						t.Fatalf("record %d: value %d = %g, synchronous reader got %g", i, j, v, w.Data()[j])
					}
				}
			}
			if _, err := ra.Next(); err != io.EOF {
				t.Fatalf("Next after last record: %v, want io.EOF", err)
			}
			if _, err := ra.Next(); err != io.EOF {
				t.Fatalf("repeated Next after EOF: %v, want io.EOF", err)
			}
		})
	}
}

// TestStreamReadAheadError verifies prefetch reports a corrupted stream
// with the same sticky-error behavior as the synchronous reader.
func TestStreamReadAheadError(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sw.WriteTensor(ctx, c, mkStreamTensor(3, 8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x40 // corrupt a payload byte mid-stream

	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.SetReadAhead(ctx, 2); err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 4; i++ {
		if _, firstErr = sr.Next(); firstErr != nil {
			break
		}
		if _, firstErr = sr.Decode(ctx); firstErr != nil {
			break
		}
	}
	if firstErr == nil || firstErr == io.EOF {
		t.Fatalf("corrupted stream decoded cleanly (err %v)", firstErr)
	}
	if _, err := sr.Next(); err != firstErr {
		t.Fatalf("error not sticky: second Next returned %v, first failure was %v", err, firstErr)
	}
}

// TestStreamReadAheadCancellation verifies cancelling the prefetch
// context aborts the reader with an error wrapping context.Canceled.
func TestStreamReadAheadCancellation(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	writeParallelStream(t, sw)

	ctx, cancel := context.WithCancel(context.Background())
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.SetReadAhead(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Decode(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	var raErr error
	for i := 0; i < len(parallelCases); i++ {
		if _, raErr = sr.Next(); raErr != nil {
			break
		}
		if _, raErr = sr.Decode(context.Background()); raErr != nil {
			break
		}
	}
	if !errors.Is(raErr, context.Canceled) {
		t.Fatalf("reader after cancellation returned %v, want an error wrapping context.Canceled", raErr)
	}
}
