package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// This file is the shared batch pipeline: the plane-independent
// adapters (ZFP, SZ and JPEG process trailing 2-D planes independently)
// fan a tensor's planes out on internal/tensor's plane pool — the one
// pool DCT+Chop's batched passes and IndexedStream.DecodeRange use too,
// under the one cap SetMaxWorkers sets — with sync.Pool-reused float32
// scratch buffers for the packing/staging copies.
//
// Plane-framed payload layout (little-endian):
//
//	u32 plane count
//	u32 × count  per-plane payload lengths
//	concatenated per-plane payloads

// SetMaxWorkers caps how many goroutines every plane loop uses — the
// plane-framed families', dctc's batched passes and the matmuls — and
// returns the previous cap. n < 1 restores the default, one worker per
// runtime.GOMAXPROCS(0), which reads back as 0. Tests pin the cap to 1
// to make plane execution order deterministic; restore the returned
// value when done. Safe to call while compressions are in flight.
func SetMaxWorkers(n int) int { return tensor.SetMaxWorkers(n) }

// planeLoop is forEachPlane's job on the plane pool. Pooled with its
// error slots, so a loop allocates nothing.
type planeLoop struct {
	ctx  context.Context
	fn   func(p int) error
	errs []error // one slot per plane, written only by the plane's runner
	ran  atomic.Int64
}

var planeLoops = sync.Pool{New: func() any { return new(planeLoop) }}

// RunPlane runs plane p unless ctx has been cancelled.
func (l *planeLoop) RunPlane(p int) {
	if l.ctx.Err() != nil {
		return
	}
	l.ran.Add(1)
	l.errs[p] = l.fn(p)
}

// forEachPlane runs fn(p) for p in [0, planes) on the plane pool. Every
// plane runs to completion and errors are collected per plane, so the
// same bad input always reports the lowest-indexed failing plane
// regardless of worker scheduling. Cancelling ctx is the one early
// exit: planes not yet started are skipped and the context error is
// returned (wrapped, satisfying errors.Is) unless a plane that ran
// failed.
func forEachPlane(ctx context.Context, planes int, fn func(p int) error) error {
	if planes <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return markErr(ErrCanceled, fmt.Errorf("codec: plane pipeline: %w", err))
	}
	l := planeLoops.Get().(*planeLoop)
	l.ctx, l.fn = ctx, fn
	l.errs = slices.Grow(l.errs[:0], planes)[:planes]
	l.ran.Store(0)
	tensor.ParallelPlanes(planes, l)
	var err error
	for _, e := range l.errs {
		if e != nil {
			err = e
			break
		}
	}
	ran := l.ran.Load()
	clear(l.errs)
	l.ctx, l.fn = nil, nil
	planeLoops.Put(l)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return markErr(ErrCanceled, fmt.Errorf("codec: plane pipeline cancelled after running %d of %d planes: %w", ran, planes, err))
	}
	return nil
}

// scratchPool recycles float32 staging buffers across planes and calls.
var scratchPool = sync.Pool{New: func() any { return new([]float32) }}

// getScratchNoZero returns a scratch buffer of length n with arbitrary
// contents — for callers that overwrite every element before reading
// any (the flat decode paths decode into every plane, padded tail
// included, before copying out).
func getScratchNoZero(n int) []float32 {
	bp := scratchPool.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	return (*bp)[:n]
}

// getScratch returns a zeroed scratch buffer of length n — for callers
// that read elements they never wrote, like the flat encode paths whose
// zero-padded tail is compressed along with the data.
func getScratch(n int) []float32 {
	buf := getScratchNoZero(n)
	clear(buf)
	return buf
}

// putScratch returns a buffer to the pool.
func putScratch(buf []float32) {
	scratchPool.Put(&buf)
}

// byteScratchPool recycles byte staging buffers (plane-frame tables,
// index-footer reads) across decodes.
var byteScratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getByteScratch returns a pooled byte buffer of length n with
// arbitrary contents. Hand the pointer back to putByteScratch: pooling
// the pointer itself keeps the round trip allocation-free.
func getByteScratch(n int) *[]byte {
	bp := byteScratchPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putByteScratch returns a buffer to the pool.
func putByteScratch(bp *[]byte) {
	byteScratchPool.Put(bp)
}

// compressPlanes encodes every h×w plane of x concurrently with enc and
// assembles the plane-framed payload. enc receives plane p as the
// zero-copy view x[p·h·w : (p+1)·h·w]. A length that is not a whole
// number of planes is an error — silently truncating the tail would
// decode to a different tensor.
func compressPlanes(ctx context.Context, x []float32, h, w int, enc func(p int, plane []float32) ([]byte, error)) ([]byte, error) {
	if h < 1 || w < 1 {
		return nil, fmt.Errorf("codec: invalid plane size %d×%d", h, w)
	}
	if len(x)%(h*w) != 0 {
		return nil, fmt.Errorf("codec: tensor length %d is not a whole number of %d×%d planes (%d trailing values)", len(x), h, w, len(x)%(h*w))
	}
	planes := len(x) / (h * w)
	parts := make([][]byte, planes)
	err := forEachPlane(ctx, planes, func(p int) error {
		out, err := enc(p, x[p*h*w:(p+1)*h*w])
		if err != nil {
			return fmt.Errorf("codec: plane %d: %w", p, err)
		}
		parts[p] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 4 + 4*planes
	for _, part := range parts {
		total += len(part)
	}
	payload := make([]byte, 0, total)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(planes))
	for _, part := range parts {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(part)))
	}
	for _, part := range parts {
		payload = append(payload, part...)
	}
	return payload, nil
}

// payloadSource hands a backend its payload front to back. A resident
// payload (memPayload: v1 containers, staged payloads after their
// inverse, the serialize round trip) returns zero-copy views; a v2
// record's payloadReader returns bytes from CRC-checked chunks in a
// buffer it reuses, so a view is valid only until the next call.
type payloadSource interface {
	// len reports the payload bytes not yet taken.
	len() int
	// next takes the next n payload bytes.
	next(n int) ([]byte, error)
}

// memPayload is a resident payload.
type memPayload struct{ b []byte }

func (m *memPayload) len() int { return len(m.b) }

func (m *memPayload) next(n int) ([]byte, error) {
	if n > len(m.b) {
		return nil, markErr(ErrTruncated, fmt.Errorf("codec: payload truncated: want %d bytes, %d left", n, len(m.b)))
	}
	v := m.b[:n:n]
	m.b = m.b[n:]
	return v, nil
}

// planeFrame is a plane-framed payload whose count and length table
// have been read and checked; the planes themselves are still in src,
// and group takes them out.
type planeFrame struct {
	src    payloadSource
	planes int
	taken  int // planes already handed out
	// ends holds each plane's end offset, relative to the first plane's
	// first byte, as little-endian u32s (pooled scratch).
	ends *[]byte
}

// readPlaneFrame is the one parser of the plane-frame header. It reads
// the plane count and length table from src and checks them against
// the shape-implied plane count, the payload size, and the family's
// per-plane rule — no plane over maxPlane bytes when it is positive,
// every plane exactly maxPlane bytes when exact — so a corrupt frame
// fails before the caller allocates its output. Release the frame when
// done with it.
func readPlaneFrame(src payloadSource, planes, maxPlane int, exact bool) (planeFrame, error) {
	head, err := src.next(4)
	if err != nil {
		return planeFrame{}, fmt.Errorf("codec: reading plane count: %w", err)
	}
	if got := binary.LittleEndian.Uint32(head); got != uint32(planes) {
		return planeFrame{}, fmt.Errorf("codec: payload holds %d planes, shape implies %d", got, planes)
	}
	table, err := src.next(4 * planes)
	if err != nil {
		return planeFrame{}, fmt.Errorf("codec: reading plane length table: %w", err)
	}
	// The table is validated as uint32s before any conversion: on
	// 32-bit platforms a length ≥ 2³¹ must not wrap negative.
	f := planeFrame{src: src, planes: planes, ends: getByteScratch(4 * planes)}
	rest, ends := uint64(src.len()), *f.ends
	var end uint64
	for p := 0; p < planes; p++ {
		n := uint64(binary.LittleEndian.Uint32(table[4*p:]))
		if exact && n != uint64(maxPlane) {
			f.release()
			return planeFrame{}, fmt.Errorf("codec: plane %d payload %d bytes, want %d", p, n, maxPlane)
		}
		if maxPlane > 0 && n > uint64(maxPlane) {
			f.release()
			return planeFrame{}, fmt.Errorf("codec: plane %d payload %d bytes exceeds the %d-byte plane budget", p, n, maxPlane)
		}
		if n > rest-end {
			f.release()
			return planeFrame{}, fmt.Errorf("codec: plane %d payload (%d bytes at offset %d) overruns frame", p, n, end)
		}
		end += n
		binary.LittleEndian.PutUint32(ends[4*p:], uint32(end))
	}
	if end != rest {
		f.release()
		return planeFrame{}, fmt.Errorf("codec: %d trailing bytes after plane payloads", rest-end)
	}
	return f, nil
}

// release returns the frame's table to the pool.
func (f *planeFrame) release() { putByteScratch(f.ends) }

// planeStart and planeEnd bound plane p's bytes in a frame's table,
// relative to the first plane.
func planeStart(ends []byte, p int) int {
	if p == 0 {
		return 0
	}
	return planeEnd(ends, p-1)
}

func planeEnd(ends []byte, p int) int { return int(binary.LittleEndian.Uint32(ends[4*p:])) }

// group takes the next plane group from the source: planes [p0, p1)
// and their bytes. A group holds at most planeGroupBytes, or one plane
// larger than that, so a streamed record never has more than one group
// of compressed bytes resident.
func (f *planeFrame) group(ctx context.Context) (p0, p1 int, data []byte, err error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, nil, markErr(ErrCanceled, fmt.Errorf("codec: decode cancelled before plane %d: %w", f.taken, err))
	}
	ends := *f.ends
	p0, p1 = f.taken, f.taken+1
	base := planeStart(ends, p0)
	for p1 < f.planes && planeEnd(ends, p1)-base <= planeGroupBytes {
		p1++
	}
	if data, err = f.src.next(planeEnd(ends, p1-1) - base); err != nil {
		return 0, 0, nil, fmt.Errorf("codec: reading planes [%d,%d): %w", p0, p1, err)
	}
	f.taken = p1
	return p0, p1, data, nil
}

// decodePlanes decodes every plane into the h×w planes of out, each
// group's planes concurrently on the plane pool, and releases the
// frame. dec receives plane p's bytes and the zero-copy view
// out[p·h·w : (p+1)·h·w] of its output plane; planes are disjoint, so
// the concurrent writes are race-free.
func (f *planeFrame) decodePlanes(ctx context.Context, out []float32, h, w int, dec func(p int, data []byte, plane []float32) error) error {
	defer f.release()
	ends := *f.ends
	for f.taken < f.planes {
		p0, p1, data, err := f.group(ctx)
		if err != nil {
			return err
		}
		base := planeStart(ends, p0)
		err = forEachPlane(ctx, p1-p0, func(i int) error {
			p := p0 + i
			if err := dec(p, data[planeStart(ends, p)-base:planeEnd(ends, p)-base], out[p*h*w:(p+1)*h*w]); err != nil {
				return fmt.Errorf("codec: plane %d: %w", p, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
