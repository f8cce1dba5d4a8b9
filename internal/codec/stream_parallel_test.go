package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// parallelCases mixes codec families, shapes, and payload sizes so a
// round's records encode at very different speeds (ordering would
// scramble under a naive pool). The staged records land in round
// slots that earlier records, staged or not and larger or smaller,
// used before them.
var parallelCases = []struct {
	spec  string
	shape []int
}{
	{"dctc:cf=4", []int{2, 1, 16, 16}},
	{"lossless:bg=4+huf", []int{4, 32, 32}},
	{"lossless:bg=4+huf", []int{100}},
	{"zfp:rate=8", []int{3, 8, 8}},
	{"sz:eb=1e-3", []int{3, 5, 7}},
	{"jpegq:q=50", []int{1, 2, 8, 8}},
	{"dctc:cf=4", []int{100}},
	{"zfp:rate=8", []int{4, 32, 32}},
	{"sz:eb=1e-3", []int{64}},
	{"zfp:rate=8", []int{100}},
	{"dctc:cf=4+huf", []int{1, 1, 32, 32}},
	{"lossless:bg=2+huf", []int{4, 32, 32}},
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

// TestParallelStreamWriterByteIdentical: a writer with wide rounds must
// produce the serial writer's stream byte for byte, across round sizes
// and under a byte budget tight enough to close rounds early mid-stream.
func TestParallelStreamWriterByteIdentical(t *testing.T) {
	var serial bytes.Buffer
	sw := NewStreamWriter(&serial)
	sw.SetChunkSize(4 << 10)
	writeParallelStream(t, sw)
	// Each serial record decodes to what a round trip of its tensor
	// decodes to.
	sr, err := NewStreamReader(bytes.NewReader(serial.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range parallelCases {
		c, err := New(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := c.RoundTrip(mkStreamTensor(tc.shape...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sr.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		got, err := sr.Decode(context.Background())
		if err != nil {
			t.Fatalf("record %d (%s): %v", i, tc.spec, err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("record %d (%s) decodes unlike its container", i, tc.spec)
		}
	}

	for _, workers := range []int{0, 2, 4, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var par bytes.Buffer
			pw := NewStreamWriter(&par)
			pw.SetChunkSize(4 << 10)
			if err := pw.SetConcurrency(workers); err != nil {
				t.Fatal(err)
			}
			pw.budget = 8 << 10
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

// slowSink delays every Write, modeling a saturated disk or socket.
type slowSink struct {
	delay time.Duration
	buf   bytes.Buffer
}

func (s *slowSink) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.buf.Write(p)
}

// TestStreamWriterBackPressure drives a writer with rounds of four into
// a slow sink with a small in-flight budget and verifies the budget
// held: the high-water mark of a round's uncompressed bytes never
// exceeded it, i.e. a round closes early instead of queueing records.
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
	sw.budget = budget
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
	hi := sw.maxInFlight
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

// gateBackend is a test backend whose encode blocks until the record's
// context dies or the gate opens, counting encode starts — the probe
// for "no encode starts after a failure".
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

// TestParallelStreamWriterCancellation cancels the context while a
// round's encodes are parked and verifies the abort contract: the
// WriteTensor that closed the round fails with an error wrapping
// context.Canceled, the error is sticky through later WriteTensor calls
// and Close, no more than one round of encodes ever starts, and nothing
// is written after the failure.
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

	// Records that do not close the round are only admitted.
	for i := 0; i < workers-1; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatalf("record %d admitted with error: %v", i, err)
		}
	}
	if n := g.starts.Load(); n != 0 {
		t.Fatalf("%d encodes started before the round closed", n)
	}
	// The next record closes the round, whose encodes park on the gate;
	// cancel while they wait.
	errCh := make(chan error, 1)
	go func() {
		errCh <- sw.WriteTensor(ctx, c, x)
	}()
	for g.starts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) || ErrorKind(err) != "canceled" {
		t.Fatalf("round-closing WriteTensor returned %v (kind %q), want a canceled error wrapping context.Canceled", err, ErrorKind(err))
	}
	// The sticky failure must surface on later calls and on Close.
	if err := sw.WriteTensor(context.Background(), c, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteTensor after cancellation returned %v, want sticky context.Canceled", err)
	}
	if err := sw.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close returned %v, want sticky context.Canceled", err)
	}
	if n := g.starts.Load(); n > workers {
		t.Fatalf("%d encodes started; want at most one round of %d", n, workers)
	}
	// The poisoned stream carries no end marker (truncation is visible).
	if buf.Len() != 0 && buf.Bytes()[buf.Len()-1] == recEnd {
		t.Fatal("poisoned stream ends with a clean end-of-stream marker")
	}
}

// TestAbandonedStreamWriterLeaksNothing: a writer dropped without Close
// leaves no goroutine behind at any round size. The records of an open
// round are plain slots, not work parked on channels, so the writer and
// its tensors are garbage once the caller lets go of them.
func TestAbandonedStreamWriterLeaksNothing(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(4, 16, 16)
	abandon := func(n int) int {
		sw := NewStreamWriter(io.Discard)
		if err := sw.SetConcurrency(n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := sw.WriteTensor(context.Background(), c, x); err != nil {
				t.Fatal(err)
			}
		}
		return runtime.NumGoroutine()
	}
	// The serial run also spawns the plane pool's persistent workers,
	// which live for the process by design.
	serial := abandon(1)
	if got := abandon(4); got > serial {
		t.Fatalf("abandoned writer with rounds of 4 left %d goroutines running, the serial writer %d", got, serial)
	}
}

// nopPlanes is a plane job that does nothing.
type nopPlanes struct{}

func (nopPlanes) RunPlane(int) {}

// TestAbandonedStreamReaderLeaksNothing: a read-ahead reader dropped
// mid-stream with a live context leaves no more goroutines behind than
// the synchronous reader. A round is read and decoded inside Next, so
// between calls nothing runs on the reader's behalf.
func TestAbandonedStreamReaderLeaksNothing(t *testing.T) {
	var buf bytes.Buffer
	writeParallelStream(t, NewStreamWriter(&buf))
	abandon := func(depth int) {
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if depth > 0 {
			if err := sr.SetReadAhead(context.Background(), depth); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// A round of four decodes on the plane pool's persistent workers,
	// which live for the process by design: spawn them before counting.
	tensor.ParallelPlanesWidth(4, 4, nopPlanes{})
	abandon(0)
	serial := runtime.NumGoroutine()
	abandon(4)
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > serial; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned read-ahead reader left %d goroutines running, the synchronous reader %d", runtime.NumGoroutine(), serial)
		}
	}
}

// TestReadAheadBudgetSplitsRounds reads parallelCases at a depth of
// four under a budget of a few records' uncompressed bytes: rounds
// close early, leaving a parsed header for the next round, never hold
// more than the budget unless they hold one record, and serve what the
// synchronous reader decodes.
func TestReadAheadBudgetSplitsRounds(t *testing.T) {
	var buf bytes.Buffer
	writeParallelStream(t, NewStreamWriter(&buf))
	ctx := context.Background()
	read := func(depth int) (outs []*tensor.Tensor, rounds int) {
		sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		const budget = 8 << 10
		if depth > 0 {
			if err := sr.SetReadAhead(ctx, depth); err != nil {
				t.Fatal(err)
			}
			sr.round.budget = budget
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				return outs, rounds
			} else if err != nil {
				t.Fatal(err)
			}
			if r := &sr.round; r.depth > 0 && r.at == 1 {
				rounds++
				claimed := 0
				for _, p := range r.recs[:r.n] {
					claimed += 4 * p.hdr.Elems()
				}
				if r.n > 1 && claimed > budget {
					t.Fatalf("round %d holds %d records, %d claimed bytes, past the %d-byte budget", rounds, r.n, claimed, budget)
				}
			}
			out, err := sr.Decode(ctx)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
	}
	want, _ := read(0)
	got, rounds := read(4)
	if minRounds := (len(parallelCases) + 3) / 4; rounds <= minRounds {
		t.Fatalf("%d rounds for %d records at depth 4: the budget closed none early", rounds, len(parallelCases))
	}
	if len(got) != len(want) {
		t.Fatalf("read-ahead served %d records, the synchronous reader %d", len(got), len(want))
	}
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("record %d differs from the synchronous reader's", i)
		}
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

// TestParallelStreamWriterSinkError verifies a sink failure poisons a
// writer with rounds of three exactly like an encode failure.
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
