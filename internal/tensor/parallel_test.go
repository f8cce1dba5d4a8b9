package tensor

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestBatchedMatMulInto(t *testing.T) {
	r := NewRNG(29)
	a := r.Uniform(-1, 1, 4, 3, 5, 6)
	b := r.Uniform(-1, 1, 6, 7)
	want := BatchedMatMul(a, b)
	dst := Full(99, 4, 3, 5, 7) // stale contents must be overwritten
	BatchedMatMulInto(dst, a, b)
	if d := dst.MaxAbsDiff(want); d != 0 {
		t.Fatalf("BatchedMatMulInto deviates from BatchedMatMul by %g", d)
	}
}

func TestBatchedMatMulLeftInto(t *testing.T) {
	r := NewRNG(31)
	a := r.Uniform(-1, 1, 2, 3, 6, 5)
	b := r.Uniform(-1, 1, 4, 6)
	want := BatchedMatMulLeft(b, a)
	dst := Full(-7, 2, 3, 4, 5)
	BatchedMatMulLeftInto(dst, b, a)
	if d := dst.MaxAbsDiff(want); d != 0 {
		t.Fatalf("BatchedMatMulLeftInto deviates from BatchedMatMulLeft by %g", d)
	}
}

func TestBatchedMatMulIntoShapeMismatchPanics(t *testing.T) {
	a := New(2, 5, 6)
	b := New(6, 7)
	defer expectPanic(t, "dst shape mismatch")
	BatchedMatMulInto(New(2, 5, 6), a, b) // last dim must be 7
}

func TestBatchedMatMulLeftIntoShapeMismatchPanics(t *testing.T) {
	a := New(2, 6, 5)
	b := New(4, 6)
	defer expectPanic(t, "dst shape mismatch")
	BatchedMatMulLeftInto(New(2, 3, 5), b, a) // second-to-last dim must be 4
}

// TestMatMulFlopGate pins the parallel-gate fix: the decision must track
// m·n·k, not output size m·n. A skinny product with a huge inner
// dimension does real work and must still match the reference, and a
// wide output with a tiny inner dimension must stay correct on the
// serial path. Both paths land in matmulRange, so this is a correctness
// check at the exact boundary sizes the gate separates.
func TestMatMulFlopGate(t *testing.T) {
	r := NewRNG(37)
	cases := [][3]int{
		{2, 70000, 2},  // m·n = 4 (tiny output), m·n·k ≫ gate: parallel path
		{256, 1, 256},  // m·n = 65536 (old gate fired), m·n·k < gate: serial
		{64, 64, 64},   // exactly at the gate
		{64, 63, 64},   // one FLOP-row under the gate
		{1, 70000, 64}, // big work but m=1: single row bands, serial
	}
	for _, dims := range cases {
		m, k, n := dims[0], dims[1], dims[2]
		a := r.Uniform(-1, 1, m, k)
		b := r.Uniform(-1, 1, k, n)
		got := MatMul(a, b)
		ref := MatMulNaive(a, b)
		// k up to 70000 accumulates real float32 rounding; scale the
		// tolerance with the summation length.
		tol := 1e-4 * float64(k)
		if d := got.MaxAbsDiff(ref); d > tol {
			t.Fatalf("MatMul(%dx%dx%d) deviates from naive by %g (tol %g)", m, k, n, d, tol)
		}
	}
}

// countJob counts RunPlane invocations per index.
type countJob struct {
	hits []int32
}

func (j *countJob) RunPlane(p int) { atomic.AddInt32(&j.hits[p], 1) }

func TestParallelPlanesCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000} {
		j := &countJob{hits: make([]int32, n)}
		ParallelPlanes(n, j)
		for i, h := range j.hits {
			if h != 1 {
				t.Fatalf("n=%d: plane %d visited %d times", n, i, h)
			}
		}
	}
}

// reentrantJob calls ParallelPlanes from inside RunPlane. The outer
// round holds the pool, so the inner call must fall back to serial
// execution instead of deadlocking.
type reentrantJob struct {
	inner *countJob
}

func (j *reentrantJob) RunPlane(p int) {
	if p == 0 {
		ParallelPlanes(len(j.inner.hits), j.inner)
	}
}

func TestParallelPlanesBusyPoolFallsBackToSerial(t *testing.T) {
	inner := &countJob{hits: make([]int32, 8)}
	ParallelPlanes(4, &reentrantJob{inner: inner})
	for i, h := range inner.hits {
		if h != 1 {
			t.Fatalf("inner plane %d visited %d times", i, h)
		}
	}
}

// TestParallelPlanesAllocs pins the dispatch contract: handing a round
// to the persistent pool must not allocate. The job is a pooled struct
// pointer, so the interface conversion doesn't allocate either.
func TestParallelPlanesAllocs(t *testing.T) {
	j := &countJob{hits: make([]int32, 64)}
	ParallelPlanes(64, j) // warm up: spawn workers
	allocs := testing.AllocsPerRun(20, func() {
		ParallelPlanes(64, j)
	})
	if allocs != 0 {
		t.Fatalf("ParallelPlanes allocates %.1f objects per round, want 0", allocs)
	}
}

// rendezvousJob's two planes each wait for the other to start, so both
// meet only when they run at the same time.
type rendezvousJob struct {
	started [2]chan struct{}
	met     atomic.Int32
}

func (j *rendezvousJob) RunPlane(p int) {
	close(j.started[p])
	select {
	case <-j.started[1-p]:
		j.met.Add(1)
	case <-time.After(5 * time.Second):
	}
}

// TestParallelPlanesWidthOverridesCap: a width the caller names is the
// round's own — DecodeRange's records run that wide — and is not held
// to SetMaxWorkers' cap, which binds only rounds that name none.
func TestParallelPlanesWidthOverridesCap(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(1))
	j := &rendezvousJob{started: [2]chan struct{}{make(chan struct{}), make(chan struct{})}}
	ParallelPlanesWidth(2, 2, j)
	if got := j.met.Load(); got != 2 {
		t.Fatalf("a width-2 round under cap 1 ran its planes one at a time (%d of 2 met)", got)
	}
}
