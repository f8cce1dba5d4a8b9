package codec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// withTelemetry runs fn with the global telemetry switch forced to v,
// restoring the previous state after. Tests that need telemetry ON are
// skipped under -tags acc_notelemetry, where it cannot be enabled.
func withTelemetry(t *testing.T, v bool, fn func()) {
	t.Helper()
	prev := telemetry.SetEnabled(v)
	defer telemetry.SetEnabled(prev)
	if v && !telemetry.Enabled() {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	fn()
}

// encodeAll compresses the batch with each spec and returns the
// concatenated container bytes plus a serial stream of the batch.
func encodeAll(t *testing.T, specs []string, x *tensor.Tensor) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, spec := range specs {
		c, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatalf("Compress(%q): %v", spec, err)
		}
		out.Write(data)
		sw := NewStreamWriter(&out)
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			t.Fatalf("WriteTensor(%q): %v", spec, err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestTelemetryByteNeutral proves instrumentation never changes output
// bytes: the same inputs encode identically with telemetry on and off.
func TestTelemetryByteNeutral(t *testing.T) {
	specs := []string{"dctc:cf=4", "zfp:rate=8", "jpegq:q=50", "sz:eb=1e-3", "lossless:bg=4+huf"}
	x := conformanceBatch()
	var on, off []byte
	withTelemetry(t, true, func() { on = encodeAll(t, specs, x) })
	withTelemetry(t, false, func() { off = encodeAll(t, specs, x) })
	if !bytes.Equal(on, off) {
		t.Fatalf("telemetry changed encoded bytes: %d vs %d bytes", len(on), len(off))
	}
}

// TestCodecMetricsRecorded checks the per-spec counters move by the
// right amounts across a compress/decompress pair.
func TestCodecMetricsRecorded(t *testing.T) {
	withTelemetry(t, true, func() {
		c, err := New("zfp:rate=8")
		if err != nil {
			t.Fatal(err)
		}
		x := mkStreamTensor(2, 16, 16)
		before := telemetry.Default().Snapshot()
		data, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := DecodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		d := telemetry.Default().Snapshot().Delta(before)
		p := "codec." + c.Spec() + "."
		wantCounters := map[string]uint64{
			p + "compress_calls":   1,
			p + "decompress_calls": 1,
			p + "input_bytes":      uint64(x.SizeBytes()),
			p + "output_bytes":     uint64(back.SizeBytes()),
		}
		for name, want := range wantCounters {
			if got := d.Counters[name]; got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
		if d.Counters[p+"payload_bytes"] == 0 {
			t.Errorf("%spayload_bytes did not move", p)
		}
		for _, h := range []string{p + "compress_ns", p + "decompress_ns"} {
			if d.Histograms[h].Count == 0 {
				t.Errorf("%s recorded no observations", h)
			}
		}
	})
}

// TestCodecErrorCounters checks that a canceled compression lands in
// the errors.canceled counter of its spec.
func TestCodecErrorCounters(t *testing.T) {
	withTelemetry(t, true, func() {
		c, err := New("zfp:rate=8")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		before := telemetry.Default().Snapshot()
		if err := NewStreamWriter(io.Discard).WriteTensor(ctx, c, mkStreamTensor(2, 16, 16)); err == nil {
			t.Fatal("canceled compress succeeded")
		}
		d := telemetry.Default().Snapshot().Delta(before)
		name := "codec." + c.Spec() + ".errors.canceled"
		if got := d.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	})
}

// countingOn forces telemetry on for the rest of the test and reports
// whether it records: false under -tags acc_notelemetry, where callers
// skip their counter assertions after checking behavior.
func countingOn(t *testing.T) bool {
	t.Helper()
	prev := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prev) })
	return telemetry.Enabled()
}

// countersSince returns the registry counters that moved since before.
func countersSince(before telemetry.Snapshot) map[string]uint64 {
	return telemetry.Default().Snapshot().Delta(before).Counters
}

// TestStreamWriterStatsSerial checks the stream.writer counters a
// serial write run moves, and that it leaves the in-flight gauge where
// it found it.
func TestStreamWriterStatsSerial(t *testing.T) {
	counted := countingOn(t)
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	x := mkStreamTensor(3, 16, 16)
	const n = 3
	before := telemetry.Default().Snapshot()
	for i := 0; i < n; i++ {
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot()
	if sw.Records() != n {
		t.Errorf("Records() = %d, want %d", sw.Records(), n)
	}
	if !counted {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	d := after.Delta(before).Counters
	if a, e := d["stream.writer.records_admitted"], d["stream.writer.records_emitted"]; a != n || e != n {
		t.Errorf("admitted/emitted = %d/%d, want %d/%d", a, e, n, n)
	}
	if got, want := d["stream.writer.uncompressed_bytes"], uint64(n*x.SizeBytes()); got != want {
		t.Errorf("uncompressed_bytes = %d, want %d", got, want)
	}
	if got := d["stream.writer.payload_bytes"]; got == 0 || got >= uint64(buf.Len()) {
		t.Errorf("payload_bytes = %d, want in (0, %d)", got, buf.Len())
	}
	const inflight = "stream.writer.inflight_bytes"
	if before.Gauges[inflight] != after.Gauges[inflight] {
		t.Errorf("serial writer moved %s: %d -> %d", inflight, before.Gauges[inflight], after.Gauges[inflight])
	}
}

// TestFailedEncodeNotAdmitted: a record whose encode fails (jpegq needs
// sides that are multiples of 8) is neither counted as admitted nor
// written, whether it fails in its own WriteTensor (rounds of one) or
// at Close, which closes a partial round of two.
func TestFailedEncodeNotAdmitted(t *testing.T) {
	counted := countingOn(t)
	c, err := New("jpegq:q=50")
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			var buf bytes.Buffer
			sw := NewStreamWriter(&buf)
			if err := sw.SetConcurrency(width); err != nil {
				t.Fatal(err)
			}
			before := telemetry.Default().Snapshot()
			err := sw.WriteTensor(context.Background(), c, mkStreamTensor(2, 3, 15, 15))
			if width == 1 && err == nil {
				t.Fatal("jpegq encoded a 15×15 plane")
			}
			if cerr := sw.Close(); cerr == nil {
				t.Fatal("Close after a failed encode returned nil")
			}
			after := telemetry.Default().Snapshot()
			if buf.Len() != 0 {
				t.Errorf("failed record left %d bytes in the sink", buf.Len())
			}
			if !counted {
				t.Skip("telemetry compiled out (acc_notelemetry)")
			}
			d := after.Delta(before).Counters
			if a, b := d["stream.writer.records_admitted"], d["stream.writer.uncompressed_bytes"]; a != 0 || b != 0 {
				t.Errorf("failed record counted: records_admitted +%d, uncompressed_bytes +%d", a, b)
			}
		})
	}
}

// TestStreamWriterStatsPipelined checks the accounting of rounds of
// two: every admitted record is emitted, the in-flight bytes drain to
// zero at Close (in the writer and in the gauge), and the high-water
// mark covers at least one record.
func TestStreamWriterStatsPipelined(t *testing.T) {
	counted := countingOn(t)
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetConcurrency(2); err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(3, 16, 16)
	const n = 5
	before := telemetry.Default().Snapshot()
	for i := 0; i < n; i++ {
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	after := telemetry.Default().Snapshot()
	if sw.Records() != n {
		t.Errorf("Records() = %d, want %d", sw.Records(), n)
	}
	if sw.inflight != 0 {
		t.Errorf("writer holds %d in-flight bytes after Close, want 0", sw.inflight)
	}
	if hi := sw.maxInFlight; hi < int64(x.SizeBytes()) {
		t.Errorf("in-flight high-water mark = %d, want >= one record (%d)", hi, x.SizeBytes())
	}
	if !counted {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	d := after.Delta(before).Counters
	if a, e := d["stream.writer.records_admitted"], d["stream.writer.records_emitted"]; a != n || e != n {
		t.Errorf("admitted/emitted = %d/%d, want %d/%d", a, e, n, n)
	}
	const inflight = "stream.writer.inflight_bytes"
	if before.Gauges[inflight] != after.Gauges[inflight] {
		t.Errorf("%s did not drain at Close: %d -> %d", inflight, before.Gauges[inflight], after.Gauges[inflight])
	}
}

// TestStreamReaderStats checks the stream.reader counters a read run
// moves, with and without read-ahead, and CRC-failure accounting.
func TestStreamReaderStats(t *testing.T) {
	counted := countingOn(t)
	ctx := context.Background()
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	x := mkStreamTensor(3, 16, 16)
	const n = 4
	for i := 0; i < n; i++ {
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("plain", func(t *testing.T) {
		before := telemetry.Default().Snapshot()
		sr, err := NewStreamReader(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for {
			if _, err := sr.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if _, err := sr.Decode(ctx); err != nil {
				t.Fatal(err)
			}
			records++
		}
		if records != n {
			t.Fatalf("read %d records, want %d", records, n)
		}
		if !counted {
			t.Skip("telemetry compiled out (acc_notelemetry)")
		}
		d := countersSince(before)
		if got := d["stream.reader.records"]; got != n {
			t.Errorf("records = %d, want %d", got, n)
		}
		if got := d["stream.reader.chunks"]; got < n {
			t.Errorf("chunks = %d, want >= %d", got, n)
		}
		if got := d["stream.reader.payload_bytes"]; got == 0 || got >= uint64(len(good)) {
			t.Errorf("payload_bytes = %d, want in (0, %d)", got, len(good))
		}
		if got, want := d["stream.reader.decoded_bytes"], uint64(n*x.SizeBytes()); got != want {
			t.Errorf("decoded_bytes = %d, want %d", got, want)
		}
		if got := d["stream.reader.crc_failures"]; got != 0 {
			t.Errorf("crc_failures = %d, want 0", got)
		}
	})

	t.Run("readahead", func(t *testing.T) {
		before := telemetry.Default().Snapshot()
		sr, err := NewStreamReader(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.SetReadAhead(ctx, 2); err != nil {
			t.Fatal(err)
		}
		reads := uint64(0)
		for {
			if _, err := sr.Next(); err == io.EOF {
				reads++
				break
			} else if err != nil {
				t.Fatal(err)
			}
			reads++
			if _, err := sr.Decode(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if reads != n+1 {
			t.Fatalf("%d Next calls, want %d", reads, n+1)
		}
		if !counted {
			t.Skip("telemetry compiled out (acc_notelemetry)")
		}
		d := countersSince(before)
		if got := d["stream.reader.records"]; got != n {
			t.Errorf("records = %d, want %d", got, n)
		}
		if got, want := d["stream.reader.decoded_bytes"], uint64(n*x.SizeBytes()); got != want {
			t.Errorf("decoded_bytes = %d, want %d", got, want)
		}
	})

	t.Run("crc-failure", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)-2] ^= 0xFF
		before := telemetry.Default().Snapshot()
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var decodeErr error
		for {
			if _, err := sr.Next(); err != nil {
				if err != io.EOF {
					decodeErr = err
				}
				break
			}
			if _, err := sr.Decode(ctx); err != nil {
				decodeErr = err
				break
			}
		}
		if !errors.Is(decodeErr, ErrCRC) {
			t.Fatalf("corrupted stream: err %v, want a CRC failure", decodeErr)
		}
		if !counted {
			t.Skip("telemetry compiled out (acc_notelemetry)")
		}
		if got := countersSince(before)["stream.reader.crc_failures"]; got != 1 {
			t.Errorf("crc_failures = %d, want 1", got)
		}
	})
}

// TestInstrumentedRoundTripIntoAllocs is the alloc-regression gate for
// the fused hot path WITH telemetry explicitly enabled: metric handles
// are pre-resolved, so recording must not allocate.
func TestInstrumentedRoundTripIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	withTelemetry(t, true, func() {
		prev := SetMaxWorkers(1)
		defer SetMaxWorkers(prev)
		x := conformanceBatch()
		for _, spec := range []string{"zfp:rate=8", "jpegq:q=50"} {
			c, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			out := tensor.New(x.Shape()...)
			if _, err := RoundTripInto(c, out, x); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := RoundTripInto(c, out, x); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: RoundTripInto with telemetry enabled allocates %.1f/op, want 0", spec, allocs)
			}
		}
	})
}

// TestStreamWriterTelemetryAllocNeutral is the alloc-regression gate
// for the stream writer: a full write run in rounds of two with
// telemetry enabled must allocate exactly as much as the same run with
// it disabled (the writer itself allocates — payloads, record headers —
// but the instrumentation must add zero).
func TestStreamWriterTelemetryAllocNeutral(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	prevOn := telemetry.SetEnabled(true)
	compiledIn := telemetry.Enabled()
	telemetry.SetEnabled(prevOn)
	if !compiledIn {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	x := mkStreamTensor(3, 16, 16)
	run := func() {
		c, err := New("zfp:rate=8")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sw := NewStreamWriter(&buf)
		if err := sw.SetConcurrency(2); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := sw.WriteTensor(context.Background(), c, x); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Stray allocations — a sync.Pool refill after a GC or on another P,
	// a runtime background goroutine — only ever add to a count, so the
	// least of several measurements is the writer's exact count and the
	// gate needs no slack. GC is held off so pools keep their contents.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(on bool) float64 {
		prev := telemetry.SetEnabled(on)
		defer telemetry.SetEnabled(prev)
		run() // warm the pools
		least := testing.AllocsPerRun(10, run)
		for i := 0; i < 4; i++ {
			least = min(least, testing.AllocsPerRun(10, run))
		}
		return least
	}
	off := measure(false)
	on := measure(true)
	if on > off {
		t.Errorf("telemetry adds allocations to the stream writer: on=%.1f off=%.1f", on, off)
	}
}
