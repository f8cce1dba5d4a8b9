package codec

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file holds the concurrent halves of the ACCF v2 stream engine:
//
//   - swEngine: the StreamWriter's pipelined encoder. WriteTensor
//     becomes an admission step (bounded by a byte budget and a job
//     quota); a worker pool encodes records concurrently; a single
//     emitter goroutine writes them strictly in submission order, so
//     the stream is byte-identical to the serial writer's.
//   - readAhead: the StreamReader's prefetcher. One goroutine runs the
//     parse→CRC-verify→decode pipeline ahead of the consumer, so record
//     N+1 decodes while the caller is still working on record N.
//
// Neither changes a single wire byte: both v1 containers and v2
// streams are produced and parsed by the same code as the serial
// paths.

// defaultMaxInFlightBytes bounds the uncompressed bytes of records
// admitted to the pipelined writer but not yet emitted. 64 MiB keeps a
// handful of large training batches in flight without letting a slow
// sink grow the heap unboundedly.
const defaultMaxInFlightBytes = 64 << 20

// SetConcurrency configures the writer's encode parallelism. n == 1
// restores the default serial behavior; n > 1 enables the pipelined
// engine with exactly n workers; n == 0 enables it with one worker per
// runtime.GOMAXPROCS(0) at the time the first record is submitted.
// Must be called before the first WriteTensor.
//
// With the engine enabled, WriteTensor returns as soon as the record is
// admitted: encode errors surface on a later WriteTensor or on Close,
// and the caller must not mutate a submitted tensor until Close
// returns. WriteTensor blocks while the admitted but unemitted records
// hold 64 MiB of uncompressed input, so a slow sink pushes back instead
// of growing the heap. Any error poisons the writer (the same sticky
// contract as the reader): every subsequent call returns the first
// failure and the end-of-stream marker is withheld.
func (sw *StreamWriter) SetConcurrency(n int) error {
	if sw.locked || sw.closed {
		return fmt.Errorf("codec: SetConcurrency must be called before the first WriteTensor")
	}
	if n < 0 {
		return fmt.Errorf("codec: negative concurrency %d", n)
	}
	if n == 1 {
		sw.eng = nil
		return nil
	}
	sw.eng = &swEngine{sw: sw, workers: n, budget: defaultMaxInFlightBytes}
	sw.eng.cond = sync.NewCond(&sw.eng.mu)
	return nil
}

// swJob is one record moving through the pipelined writer.
type swJob struct {
	c       *codecImpl // full codec: workers run the entropy stage too
	ctx     context.Context
	x       *tensor.Tensor
	spec    string
	shape   []int
	cost    int64
	payload []byte
	err     error
	done    chan struct{} // closed by the worker that finishes the job
}

// swEngine is the pipelined record encoder behind a StreamWriter.
type swEngine struct {
	sw      *StreamWriter
	workers int   // requested; 0 = GOMAXPROCS at start
	budget  int64 // max in-flight uncompressed bytes; defaultMaxInFlightBytes

	running  bool
	work     chan *swJob   // claimed by encode workers
	pending  chan *swJob   // FIFO driving ordered emission
	slots    chan struct{} // admission quota: bounds outstanding jobs
	stop     chan struct{} // closed on first failure
	stopOnce sync.Once
	emitDone chan struct{}
	wg       sync.WaitGroup

	mu          sync.Mutex
	cond        *sync.Cond // budget waiters; broadcast on release/failure
	err         error      // first failure, sticky
	inflight    int64
	maxInFlight int64 // high-water mark (observability, tested invariant)
}

// start spins up the workers and the emitter on first use.
func (e *swEngine) start() {
	if e.running {
		return
	}
	e.running = true
	w := e.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	// The job quota bounds records between admission and emission; 2×
	// workers keeps every worker busy while the emitter drains without
	// letting tiny records queue without limit under the byte budget.
	quota := 2 * w
	e.work = make(chan *swJob, quota)
	e.pending = make(chan *swJob, quota)
	e.slots = make(chan struct{}, quota)
	e.stop = make(chan struct{})
	e.emitDone = make(chan struct{})
	e.wg.Add(w)
	// pprof labels tag the engine's goroutines in CPU and goroutine
	// profiles, so encode work is attributable per role even when the
	// stack alone is ambiguous.
	for i := 0; i < w; i++ {
		go pprof.Do(context.Background(), pprof.Labels("acc_role", "stream-encode-worker"), func(context.Context) { e.worker() })
	}
	go pprof.Do(context.Background(), pprof.Labels("acc_role", "stream-emitter"), func(context.Context) { e.emitter() })
}

// Err returns the engine's sticky failure.
func (e *swEngine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// fail latches the first failure, closes the stop gate so workers quit
// claiming encode work, and wakes budget waiters so blocked WriteTensor
// calls return the error instead of deadlocking.
func (e *swEngine) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	e.stopOnce.Do(func() { close(e.stop) })
}

// submit admits one record: it blocks while the pipeline is at its byte
// budget or job quota (back-pressure), then hands the encode to the
// worker pool and returns. The tensor is referenced, not copied, until
// its record is emitted.
func (e *swEngine) submit(ctx context.Context, impl *codecImpl, shape []int, x *tensor.Tensor) error {
	e.start()
	cost := int64(x.SizeBytes())
	if err := e.acquire(ctx, cost); err != nil {
		return err
	}
	job := &swJob{
		c:     impl,
		ctx:   ctx,
		x:     x,
		spec:  impl.spec,
		shape: shape,
		cost:  cost,
		done:  make(chan struct{}),
	}
	noteAdmitted(cost)
	// Both sends are guaranteed non-blocking: the slot acquired above
	// bounds outstanding jobs to the channels' capacity.
	e.pending <- job
	e.work <- job
	return nil
}

// acquire takes one job slot and cost bytes of the in-flight budget,
// blocking under back-pressure until the emitter releases capacity, the
// engine fails, or ctx is cancelled.
func (e *swEngine) acquire(ctx context.Context, cost int64) error {
	select {
	case e.slots <- struct{}{}:
	case <-e.stop:
		return e.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
	e.mu.Lock()
	if e.err == nil && e.inflight > 0 && e.inflight+cost > e.budget {
		// About to block on the budget: arrange a wake-up if ctx dies
		// while we wait (cond.Wait cannot select on a channel).
		watchDone := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				e.mu.Lock()
				e.cond.Broadcast()
				e.mu.Unlock()
			case <-watchDone:
			}
		}()
		for e.err == nil && ctx.Err() == nil && e.inflight > 0 && e.inflight+cost > e.budget {
			e.cond.Wait()
		}
		close(watchDone)
	}
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		<-e.slots
		return err
	}
	if err := ctx.Err(); err != nil {
		e.mu.Unlock()
		<-e.slots
		return err
	}
	e.inflight += cost
	if e.inflight > e.maxInFlight {
		e.maxInFlight = e.inflight
	}
	e.mu.Unlock()
	streamM.wInflight.Add(cost)
	return nil
}

// release returns a job's budget and slot after emission (or after the
// job is dropped on failure).
func (e *swEngine) release(cost int64) {
	e.mu.Lock()
	e.inflight -= cost
	e.cond.Broadcast()
	e.mu.Unlock()
	streamM.wInflight.Add(-cost)
	<-e.slots
}

// worker encodes claimed jobs until the work channel closes. After a
// failure the pool stops encoding: remaining jobs are claimed only to
// be marked aborted, so cancellation or a sink error stops the
// pipeline's compute promptly mid-stream.
func (e *swEngine) worker() {
	defer e.wg.Done()
	for job := range e.work {
		select {
		case <-e.stop:
			job.err = e.Err()
			close(job.done)
			continue
		default:
		}
		streamM.wWorkers.Add(1)
		ts := telemetry.NowNanos()
		payload, err := job.c.encodePayload(job.ctx, job.x)
		streamM.wEncodeNs.ObserveSince(ts)
		streamM.wWorkers.Add(-1)
		job.payload, job.err = payload, err
		close(job.done)
		if err != nil {
			e.fail(err)
		}
	}
}

// emitter writes finished records in submission order. On failure it
// keeps draining (releasing budget so blocked submitters wake and see
// the sticky error) but writes nothing further.
func (e *swEngine) emitter() {
	defer close(e.emitDone)
	for job := range e.pending {
		<-job.done
		if job.err != nil {
			e.fail(job.err)
		} else if e.Err() == nil {
			if err := e.sw.emitRecord(job.spec, job.shape, job.payload); err != nil {
				e.fail(err)
			}
		}
		job.payload = nil
		job.x = nil
		e.release(job.cost)
	}
}

// drain ends the pipeline: no further submissions are accepted, every
// in-flight record finishes (or is dropped after a failure), and the
// first error — encode, sink, or cancellation — is returned.
func (e *swEngine) drain() error {
	if !e.running {
		return nil
	}
	close(e.work)
	close(e.pending)
	e.wg.Wait()
	<-e.emitDone
	e.running = false
	return e.Err()
}

// maxInFlightBytes reports the engine's in-flight high-water mark (for
// tests and diagnostics).
func (e *swEngine) maxInFlightBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxInFlight
}

// ---------------------------------------------------------------------
// StreamReader read-ahead.

// raEntry is one prefetched record: its header and decoded tensor, or
// the error that ended the stream (io.EOF for a clean end).
type raEntry struct {
	hdr Header
	out *tensor.Tensor
	err error
}

// readAhead is the prefetch state. Once enabled, the prefetch goroutine
// owns the StreamReader's parsing fields outright and the public
// methods serve from the queue, so there is no shared mutable state.
type readAhead struct {
	ch  chan raEntry
	cur *raEntry // delivered by Next, pending Decode/Skip
	err error    // consumer-side sticky error (io.EOF after clean end)
}

// SetReadAhead enables background prefetch: a goroutine parses,
// CRC-verifies and decodes up to depth records ahead of the consumer,
// overlapping record N+1's verify+decode with the caller's processing
// of record N. Must be called before the first Next.
//
// ctx governs the background decodes; cancelling it aborts the
// prefetcher (in-flight Next/Decode calls then return an error wrapping
// ctx.Err()). The ctx passed to Decode is still checked, but the decode
// work itself has already happened under this one. The error contract
// is unchanged: Next returns exactly io.EOF at a clean end of stream,
// and any other error is sticky.
func (sr *StreamReader) SetReadAhead(ctx context.Context, depth int) error {
	if sr.ra != nil {
		return fmt.Errorf("codec: read-ahead already enabled")
	}
	if sr.rec != 0 || sr.cur != nil || sr.err != nil {
		return fmt.Errorf("codec: SetReadAhead must be called before the first Next")
	}
	if depth < 1 {
		depth = 1
	}
	sr.ra = &readAhead{ch: make(chan raEntry, depth)}
	go pprof.Do(context.Background(), pprof.Labels("acc_role", "stream-readahead"), func(context.Context) { sr.prefetch(ctx) })
	return nil
}

// prefetch runs the parse→decode loop ahead of the consumer, ending on
// the first error (io.EOF included) or when ctx is cancelled.
func (sr *StreamReader) prefetch(ctx context.Context) {
	defer close(sr.ra.ch)
	for {
		hdr, err := sr.nextRecord()
		if err == nil {
			if cerr := ctx.Err(); cerr != nil {
				err = fmt.Errorf("codec: read-ahead aborted: %w", cerr)
			}
		}
		var out *tensor.Tensor
		if err == nil {
			out, err = sr.decodeRecord(ctx)
			if err == nil {
				select {
				case sr.ra.ch <- raEntry{hdr: hdr, out: out}:
					continue
				case <-ctx.Done():
					return
				}
			}
		}
		select {
		case sr.ra.ch <- raEntry{err: err}:
		case <-ctx.Done():
		}
		return
	}
}

// Next advances to the next record and returns its header; see
// nextRecord for the error contract. In read-ahead mode the record —
// already decoded in the background — is served from the prefetch
// queue, and an unconsumed previous record is dropped (its CRCs were
// verified during the prefetch decode).
func (sr *StreamReader) Next() (Header, error) {
	if sr.ra == nil {
		return sr.nextRecord()
	}
	if sr.ra.err != nil {
		return Header{}, sr.ra.err
	}
	sr.ra.cur = nil
	// A non-empty queue means the prefetcher stayed ahead of the
	// consumer; an empty one means this Next will block on it.
	if len(sr.ra.ch) > 0 {
		streamM.rRAHits.Inc()
	} else {
		streamM.rRAMiss.Inc()
	}
	ent, ok := <-sr.ra.ch
	if !ok {
		// Prefetcher aborted by its context before reporting an error.
		sr.ra.err = fmt.Errorf("codec: read-ahead aborted: %w", context.Canceled)
		return Header{}, sr.ra.err
	}
	if ent.err != nil {
		sr.ra.err = ent.err
		if ent.err == io.EOF {
			return Header{}, io.EOF
		}
		return Header{}, ent.err
	}
	sr.ra.cur = &ent
	return ent.hdr, nil
}

// Decode decompresses the pending record into a tensor; see
// decodeRecord. In read-ahead mode the decode already happened in the
// background and the tensor is handed over directly.
func (sr *StreamReader) Decode(ctx context.Context) (*tensor.Tensor, error) {
	if sr.ra == nil {
		return sr.decodeRecord(ctx)
	}
	if sr.ra.err != nil {
		return nil, sr.ra.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sr.ra.cur == nil {
		return nil, fmt.Errorf("codec: no pending record (call Next first)")
	}
	out := sr.ra.cur.out
	sr.ra.cur = nil
	return out, nil
}

// Skip discards the pending record's payload; see skipRecord. In
// read-ahead mode the record was already decoded and CRC-verified, so
// Skip just drops it.
func (sr *StreamReader) Skip() error {
	if sr.ra == nil {
		return sr.skipRecord()
	}
	if sr.ra.err != nil {
		return sr.ra.err
	}
	sr.ra.cur = nil
	return nil
}
