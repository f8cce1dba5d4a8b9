package codec

import (
	"bytes"
	"context"
	"io"
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
	specs := []string{"dctc:cf=4", "zfp:rate=8", "jpegq:q=50", "sz:eb=1e-3", "lossless:bg=4+fse"}
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

// TestStreamWriterStatsSerial checks per-writer stats on the serial path.
func TestStreamWriterStatsSerial(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	x := mkStreamTensor(3, 16, 16)
	const n = 3
	for i := 0; i < n; i++ {
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	s := sw.Stats()
	if s.RecordsAdmitted != n || s.RecordsEmitted != n {
		t.Errorf("admitted/emitted = %d/%d, want %d/%d", s.RecordsAdmitted, s.RecordsEmitted, n, n)
	}
	if want := int64(n * x.SizeBytes()); s.UncompressedBytes != want {
		t.Errorf("UncompressedBytes = %d, want %d", s.UncompressedBytes, want)
	}
	if s.PayloadBytes <= 0 || s.PayloadBytes >= int64(buf.Len()) {
		t.Errorf("PayloadBytes = %d, want in (0, %d)", s.PayloadBytes, buf.Len())
	}
	if s.InFlightBytes != 0 || s.BudgetBytes != 0 {
		t.Errorf("serial writer reports engine gauges: %+v", s)
	}
}

// TestStreamWriterStatsPipelined checks the engine gauges: budget set,
// in-flight drained to zero at Close, high-water mark recorded.
func TestStreamWriterStatsPipelined(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetConcurrency(2); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetMaxInFlightBytes(1 << 20); err != nil {
		t.Fatal(err)
	}
	x := mkStreamTensor(3, 16, 16)
	const n = 5
	for i := 0; i < n; i++ {
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	s := sw.Stats()
	if s.RecordsAdmitted != n || s.RecordsEmitted != n {
		t.Errorf("admitted/emitted = %d/%d, want %d/%d", s.RecordsAdmitted, s.RecordsEmitted, n, n)
	}
	if s.InFlightBytes != 0 {
		t.Errorf("InFlightBytes = %d after Close, want 0", s.InFlightBytes)
	}
	if s.BudgetBytes != 1<<20 {
		t.Errorf("BudgetBytes = %d, want %d", s.BudgetBytes, 1<<20)
	}
	if s.MaxInFlightBytes < int64(x.SizeBytes()) {
		t.Errorf("MaxInFlightBytes = %d, want >= one record (%d)", s.MaxInFlightBytes, x.SizeBytes())
	}
}

// TestStreamReaderStats checks reader-side counting, including the
// read-ahead hit/miss split and CRC-failure accounting.
func TestStreamReaderStats(t *testing.T) {
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
		sr, err := NewStreamReader(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := sr.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if _, err := sr.Decode(ctx); err != nil {
				t.Fatal(err)
			}
		}
		s := sr.Stats()
		if s.Records != n {
			t.Errorf("Records = %d, want %d", s.Records, n)
		}
		if s.Chunks < n {
			t.Errorf("Chunks = %d, want >= %d", s.Chunks, n)
		}
		if s.PayloadBytes <= 0 || s.PayloadBytes >= int64(len(good)) {
			t.Errorf("PayloadBytes = %d, want in (0, %d)", s.PayloadBytes, len(good))
		}
		if want := int64(n * x.SizeBytes()); s.DecodedBytes != want {
			t.Errorf("DecodedBytes = %d, want %d", s.DecodedBytes, want)
		}
		if s.CRCFailures != 0 {
			t.Errorf("CRCFailures = %d, want 0", s.CRCFailures)
		}
		if s.ReadAheadHits != 0 || s.ReadAheadMisses != 0 {
			t.Errorf("read-ahead counters moved without read-ahead: %+v", s)
		}
	})

	t.Run("readahead", func(t *testing.T) {
		sr, err := NewStreamReader(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if err := sr.SetReadAhead(ctx, 2); err != nil {
			t.Fatal(err)
		}
		reads := int64(0)
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
		s := sr.Stats()
		if s.Records != n {
			t.Errorf("Records = %d, want %d", s.Records, n)
		}
		if got := s.ReadAheadHits + s.ReadAheadMisses; got != reads {
			t.Errorf("hits+misses = %d, want %d (one per Next)", got, reads)
		}
	})

	t.Run("crc-failure", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)-2] ^= 0xFF
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
		if decodeErr == nil {
			t.Fatal("corrupted stream read cleanly")
		}
		if s := sr.Stats(); s.CRCFailures != 1 {
			t.Errorf("CRCFailures = %d, want 1", s.CRCFailures)
		}
	})
}

// TestStreamTraceLifecycle checks every record leaves admitted →
// encoded → emitted events in the trace ring, on both the serial and
// the pipelined path.
func TestStreamTraceLifecycle(t *testing.T) {
	withTelemetry(t, true, func() {
		prevTrace := telemetry.SetTraceEnabled(true)
		defer telemetry.SetTraceEnabled(prevTrace)
		for _, conc := range []int{0, 3} {
			telemetry.ResetTrace()
			c, err := New("zfp:rate=8")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			sw := NewStreamWriter(&buf)
			if conc > 0 {
				if err := sw.SetConcurrency(conc); err != nil {
					t.Fatal(err)
				}
			}
			x := mkStreamTensor(3, 16, 16)
			const n = 4
			for i := 0; i < n; i++ {
				if err := sw.WriteTensor(context.Background(), c, x); err != nil {
					t.Fatal(err)
				}
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			phases := map[int64]map[string]bool{}
			for _, ev := range telemetry.TraceEvents() {
				if phases[ev.Record] == nil {
					phases[ev.Record] = map[string]bool{}
				}
				phases[ev.Record][ev.Phase] = true
			}
			for rec := int64(1); rec <= n; rec++ {
				for _, ph := range []string{"admitted", "encoded", "emitted"} {
					if !phases[rec][ph] {
						t.Errorf("conc=%d: record %d missing %q event (events: %v)", conc, rec, ph, phases[rec])
					}
				}
			}
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

// TestStreamEngineTelemetryAllocNeutral is the alloc-regression gate
// for the pipelined stream engine: a full write run with telemetry
// enabled must allocate no more than the same run with it disabled
// (the engine itself allocates — jobs, channels, goroutines — but the
// instrumentation must add zero).
func TestStreamEngineTelemetryAllocNeutral(t *testing.T) {
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
	measure := func(on bool) float64 {
		prev := telemetry.SetEnabled(on)
		defer telemetry.SetEnabled(prev)
		run() // warm pools and the engine's lazy setup
		return testing.AllocsPerRun(10, run)
	}
	off := measure(false)
	on := measure(true)
	// Goroutine scheduling makes engine runs noisy by a few allocations;
	// the gate is that instrumentation adds nothing beyond that noise.
	const slack = 4
	if on > off+slack {
		t.Errorf("telemetry adds allocations to the stream engine: on=%.1f off=%.1f", on, off)
	}
}
