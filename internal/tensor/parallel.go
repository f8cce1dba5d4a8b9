package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// PlaneJob is a unit of indexed work for ParallelPlanes. It is an
// interface rather than a func so callers can pass a pooled struct
// pointer: interface conversion of a pointer does not allocate, which is
// what keeps the steady-state compress/decompress path allocation-free.
type PlaneJob interface {
	// RunPlane processes plane p. Implementations must be safe to call
	// concurrently for distinct p. RunPlane may itself call
	// ParallelPlanes: the pool is then busy, so the inner loop runs
	// serially on the calling worker and parallelism is never nested.
	RunPlane(p int)
}

// maxWorkers is the width of a round that names none; 0 means
// runtime.GOMAXPROCS(0), read at each round.
var maxWorkers atomic.Int64

// SetMaxWorkers caps how many goroutines a ParallelPlanes round uses
// and returns the previous cap. n < 1 restores the default, which
// follows runtime.GOMAXPROCS(0) and reads back as 0. Safe to call at
// any time; a round in flight keeps the width it started with.
func SetMaxWorkers(n int) int {
	return int(maxWorkers.Swap(int64(max(n, 0))))
}

// workerCap is the width of a round under the current cap.
func workerCap() int {
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// planePool is the process-wide persistent worker pool behind
// ParallelPlanes. Workers are spawned on first need and live for the
// life of the process; a round hands them work through plain field
// writes plus a token channel, so dispatching a round performs no heap
// allocation (no closures, no per-round goroutines). The caller works
// the round alongside them.
var planePool struct {
	mu      sync.Mutex // serializes rounds; TryLock'd, never waited on
	workers int        // spawned so far
	wake    chan struct{}
	wg      sync.WaitGroup
	next    atomic.Int64
	planes  int
	job     PlaneJob
}

// drain claims and runs planes of the current round until none is left.
func drain() {
	pp := &planePool
	job, planes := pp.job, pp.planes
	for {
		p := int(pp.next.Add(1)) - 1
		if p >= planes {
			return
		}
		job.RunPlane(p)
	}
}

// ParallelPlanes runs job.RunPlane(p) for p in [0, planes) on the
// persistent pool, at most SetMaxWorkers' cap wide. It allocates
// nothing per call, so it is the fan-out of the zero-allocation
// compress/decompress path.
func ParallelPlanes(planes int, job PlaneJob) { ParallelPlanesWidth(planes, 0, job) }

// ParallelPlanesWidth is ParallelPlanes at a width of the caller's
// choosing (width < 1 means the cap). A round is never wider than its
// plane count. If the pool is busy serving another round, or the width
// is 1, the planes run serially on the caller's goroutine —
// correctness never depends on the pool being free.
func ParallelPlanesWidth(planes, width int, job PlaneJob) {
	if width < 1 {
		width = workerCap()
	}
	width = min(width, planes)
	pp := &planePool
	if width < 2 || !pp.mu.TryLock() {
		for p := 0; p < planes; p++ {
			job.RunPlane(p)
		}
		return
	}
	defer pp.mu.Unlock()
	if pp.wake == nil {
		pp.wake = make(chan struct{})
	}
	for ; pp.workers < width-1; pp.workers++ {
		go func() {
			for range pp.wake {
				drain()
				pp.wg.Done()
			}
		}()
	}
	pp.job = job
	pp.planes = planes
	pp.next.Store(0)
	pp.wg.Add(width - 1)
	for w := 1; w < width; w++ {
		pp.wake <- struct{}{}
	}
	drain()
	pp.wg.Wait()
	pp.job = nil
}

// planeFunc adapts a func to PlaneJob.
type planeFunc func(p int)

func (f planeFunc) RunPlane(p int) { f(p) }

// ParallelFor runs f(i) for i in [0, n) on the plane pool, for callers
// whose per-index work is a closure (the NN substrate's per-sample
// convolutions, the batched matmuls).
func ParallelFor(n int, f func(i int)) { ParallelPlanes(n, planeFunc(f)) }
