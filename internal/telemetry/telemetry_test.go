package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs fn with the global switch forced to v, restoring the
// previous state after. Tests that need recording on are skipped when
// the package is compiled out (-tags acc_notelemetry).
func withEnabled(t *testing.T, v bool, fn func()) {
	t.Helper()
	if v && !compiled {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	prev := SetEnabled(v)
	defer SetEnabled(prev)
	fn()
}

func TestCounterGaugeBasics(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		c := r.Counter("test.counter")
		c.Inc()
		c.Add(4)
		if got := c.Value(); got != 5 {
			t.Errorf("counter = %d, want 5", got)
		}
		if r.Counter("test.counter") != c {
			t.Error("counter lookup is not idempotent")
		}
		g := r.Gauge("test.gauge")
		g.Set(7)
		g.Add(-3)
		if got := g.Value(); got != 4 {
			t.Errorf("gauge = %d, want 4", got)
		}
	})
}

func TestNilReceiversAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(10)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveSince(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil receivers must read as zero")
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	withEnabled(t, false, func() {
		r := NewRegistry()
		c := r.Counter("off.counter")
		g := r.Gauge("off.gauge")
		h := r.Histogram("off.hist")
		c.Inc()
		g.Set(9)
		h.Observe(100)
		if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
			t.Error("disabled telemetry must record nothing")
		}
		if NowNanos() != 0 {
			t.Error("NowNanos must return 0 while disabled")
		}
	})
	// The paired ObserveSince of a disabled-start stamp is a no-op even
	// if telemetry is enabled in between (no garbage duration).
	var start int64
	withEnabled(t, false, func() { start = NowNanos() })
	withEnabled(t, true, func() {
		h := NewRegistry().Histogram("flip.hist")
		h.ObserveSince(start)
		if h.Snapshot().Count != 0 {
			t.Error("ObserveSince(0) must record nothing")
		}
	})
}

func TestBucketLayout(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 61, 62}, {math.MaxInt64, 62}}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketUpper(0) != 0 || BucketUpper(1) != 1 || BucketUpper(3) != 7 {
		t.Error("BucketUpper low bounds wrong")
	}
	if BucketUpper(histBuckets-1) != math.MaxUint64 {
		t.Error("last bucket must be unbounded")
	}
	// Every value must land in a bucket whose bound covers it.
	for _, v := range []int64{0, 1, 5, 1000, 123456789, math.MaxInt64} {
		i := bucketIndex(v)
		if uint64(v) > BucketUpper(i) {
			t.Errorf("value %d overruns bucket %d bound %d", v, i, BucketUpper(i))
		}
		if i > 0 && uint64(v) <= BucketUpper(i-1) {
			t.Errorf("value %d fits bucket %d, placed in %d", v, i-1, i)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	withEnabled(t, true, func() {
		h := NewRegistry().Histogram("q.hist")
		for i := 0; i < 100; i++ {
			h.Observe(10) // bucket 4, upper bound 15
		}
		h.Observe(1 << 20) // one outlier
		s := h.Snapshot()
		if s.Count != 101 {
			t.Fatalf("count = %d, want 101", s.Count)
		}
		if got := s.Quantile(0.5); got != 15 {
			t.Errorf("p50 = %d, want 15 (bucket upper bound)", got)
		}
		if got := s.Quantile(1.0); got != BucketUpper(21) {
			t.Errorf("p100 = %d, want %d", got, BucketUpper(21))
		}
		wantMean := (100*10.0 + float64(1<<20)) / 101
		if math.Abs(s.Mean()-wantMean) > 1e-9 {
			t.Errorf("mean = %g, want %g", s.Mean(), wantMean)
		}
	})
}

// Merge adds other into s.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

func TestHistogramMerge(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		a := r.Histogram("m.a")
		b := r.Histogram("m.b")
		for i := int64(1); i <= 10; i++ {
			a.Observe(i)
			b.Observe(i * 1000)
		}
		sa, sb := a.Snapshot(), b.Snapshot()
		merged := sa
		merged.Merge(sb)
		if merged.Count != sa.Count+sb.Count {
			t.Errorf("merged count %d, want %d", merged.Count, sa.Count+sb.Count)
		}
		if merged.Sum != sa.Sum+sb.Sum {
			t.Errorf("merged sum %d, want %d", merged.Sum, sa.Sum+sb.Sum)
		}
		for i := range merged.Buckets {
			if merged.Buckets[i] != sa.Buckets[i]+sb.Buckets[i] {
				t.Fatalf("bucket %d: %d, want %d", i, merged.Buckets[i], sa.Buckets[i]+sb.Buckets[i])
			}
		}
	})
}

// TestHistogramSnapshotJSONRoundTrip pins MarshalJSON's compact wire
// form: count, sum, and only the non-empty buckets as [upper, count].
func TestHistogramSnapshotJSONRoundTrip(t *testing.T) {
	withEnabled(t, true, func() {
		h := NewRegistry().Histogram("j.hist")
		for _, v := range []int64{0, 1, 3, 100, 1 << 30} {
			h.Observe(v)
		}
		data, err := json.Marshal(h.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		const want = `{"count":5,"sum":1073741928,"buckets":[[0,1],[1,1],[3,1],[127,1],[2147483647,1]]}`
		if string(data) != want {
			t.Errorf("snapshot marshals to\n %s\nwant\n %s", data, want)
		}
		// Idle histograms must marshal tiny (no 63-element array).
		empty, err := json.Marshal(HistogramSnapshot{})
		if err != nil {
			t.Fatal(err)
		}
		if len(empty) > 32 {
			t.Errorf("empty snapshot marshals to %d bytes: %s", len(empty), empty)
		}
	})
}

func TestRegistrySnapshotElisionAndDelta(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		r.Counter("zero.counter") // never incremented: elided
		r.Histogram("zero.hist")  // never observed: elided
		r.Gauge("zero.gauge")     // gauges are kept even at zero
		c := r.Counter("live.counter")
		c.Add(3)
		s := r.Snapshot()
		if _, ok := s.Counters["zero.counter"]; ok {
			t.Error("zero counter must be elided from the snapshot")
		}
		if _, ok := s.Histograms["zero.hist"]; ok {
			t.Error("empty histogram must be elided from the snapshot")
		}
		if _, ok := s.Gauges["zero.gauge"]; !ok {
			t.Error("zero gauge must be kept in the snapshot")
		}
		if s.Counters["live.counter"] != 3 {
			t.Errorf("live.counter = %d, want 3", s.Counters["live.counter"])
		}
		c.Add(4)
		d := r.Snapshot().Delta(s)
		if d.Counters["live.counter"] != 4 {
			t.Errorf("delta = %d, want 4", d.Counters["live.counter"])
		}
	})
}

func TestWriteHuman(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		r.Counter("c.calls").Add(2)
		r.Gauge("g.bytes").Set(42)
		r.Histogram("h.latency_ns").Observe(1500)
		var b strings.Builder
		if err := r.Snapshot().WriteHuman(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{"c.calls", "g.bytes", "h.latency_ns", "count 1"} {
			if !strings.Contains(out, want) {
				t.Errorf("human output missing %q:\n%s", want, out)
			}
		}
		// _ns histograms render with duration units.
		if !strings.Contains(out, "µs") && !strings.Contains(out, "ms") {
			t.Errorf("duration histogram not scaled to time units:\n%s", out)
		}
	})
}

// TestConcurrentWriters hammers one counter, gauge, and histogram from
// many goroutines; run under -race this is the data-race gate, and the
// totals prove no increment is lost.
func TestConcurrentWriters(t *testing.T) {
	withEnabled(t, true, func() {
		r := NewRegistry()
		c := r.Counter("conc.counter")
		g := r.Gauge("conc.gauge")
		h := r.Histogram("conc.hist")
		const workers = 8
		const perWorker = 10000
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					c.Inc()
					g.Add(1)
					h.Observe(int64(i))
					if i%64 == 0 {
						_ = r.Snapshot() // concurrent reader
					}
				}
			}(w)
		}
		wg.Wait()
		if got := c.Value(); got != workers*perWorker {
			t.Errorf("counter = %d, want %d", got, workers*perWorker)
		}
		if got := g.Value(); got != workers*perWorker {
			t.Errorf("gauge = %d, want %d", got, workers*perWorker)
		}
		if got := h.Snapshot().Count; got != workers*perWorker {
			t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
		}
	})
}

// TestRecordingAllocs is the package's own zero-allocation gate: one
// counter add, gauge set, histogram observe, and timing pair must not
// allocate, enabled or disabled.
func TestRecordingAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc.counter")
	g := r.Gauge("alloc.gauge")
	h := r.Histogram("alloc.hist")
	for _, enabled := range []bool{true, false} {
		withEnabled(t, enabled, func() {
			allocs := testing.AllocsPerRun(100, func() {
				c.Inc()
				g.Set(1)
				h.Observe(42)
				start := NowNanos()
				h.ObserveSince(start)
			})
			if allocs != 0 {
				t.Errorf("enabled=%v: recording allocates %v/op, want 0", enabled, allocs)
			}
		})
	}
}

func TestSetEnabledRoundTrip(t *testing.T) {
	if !compiled {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	orig := Enabled()
	defer SetEnabled(orig)
	if prev := SetEnabled(false); prev != orig {
		t.Errorf("SetEnabled returned %v, want previous state %v", prev, orig)
	}
	if Enabled() {
		t.Error("Enabled() true after SetEnabled(false)")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Error("Enabled() false after SetEnabled(true)")
	}
}

func TestEnvSwitchParsing(t *testing.T) {
	for _, off := range []string{"0", "false", "off", "no", "FALSE", "Off"} {
		if !envDisabled(off) {
			t.Errorf("envDisabled(%q) = false, want true", off)
		}
	}
	for _, on := range []string{"", "1", "true", "yes", "anything"} {
		if envDisabled(on) {
			t.Errorf("envDisabled(%q) = true, want false", on)
		}
	}
}
