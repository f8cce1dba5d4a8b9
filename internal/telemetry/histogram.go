package telemetry

import (
	"encoding/json"
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds observations whose value has bit-length i, i.e. the half-open
// ranges [0,0], [1,1], [2,3], [4,7], … — powers of two, so a value's
// bucket is one bits.Len64 and the whole layout fits in a cache-line
// handful of atomics with no configuration. Values ≥ 2⁶² land in the
// last bucket.
const histBuckets = 63

// Histogram is a lock-free fixed-bucket log₂-scale histogram for
// latencies (nanoseconds) and sizes (bytes). Observe is two atomic adds;
// there are no locks, no allocation, and snapshots are mergeable across
// histograms of the same (fixed) layout. Negative observations clamp to
// zero. The zero value is ready to use; nil receivers record nothing.
type Histogram struct {
	name    string
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Name returns the registry name the histogram was created under.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil || !Enabled() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since a NowNanos start
// stamp. A zero start (NowNanos taken while disabled) records nothing,
// so enable flips mid-operation never record a garbage duration.
func (h *Histogram) ObserveSince(startNanos int64) {
	if h == nil || startNanos == 0 || !Enabled() {
		return
	}
	h.Observe(NowNanos() - startNanos)
}

// Snapshot returns a point-in-time copy. Concurrent observers may land
// between the bucket loads; each observation is still counted exactly
// once by a later snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistogramSnapshot is a frozen histogram: comparable and
// JSON-serializable. Buckets share the fixed log₂ layout, so two
// snapshots merge by element-wise addition.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets [histBuckets]uint64
}

// Mean returns the average observed value, or 0 for an empty snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 ≤ q ≤ 1) — a conservative estimate whose error is bounded
// by the 2× bucket width. Empty snapshots return 0.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if !(q >= 0) { // NaN too
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(histBuckets - 1)
}

// histJSON is the wire form of a snapshot: only non-empty buckets ride,
// as [upper-bound, count] pairs, so idle histograms stay tiny.
type histJSON struct {
	Count   uint64      `json:"count"`
	Sum     int64       `json:"sum"`
	Buckets [][2]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON emits the compact non-empty-bucket form.
func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	out := histJSON{Count: s.Count, Sum: s.Sum}
	for i, n := range s.Buckets {
		if n != 0 {
			out.Buckets = append(out.Buckets, [2]uint64{BucketUpper(i), n})
		}
	}
	return json.Marshal(out)
}
