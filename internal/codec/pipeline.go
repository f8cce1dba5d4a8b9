package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// This file is the shared batch pipeline: the plane-independent
// adapters (ZFP, SZ and JPEG process trailing 2-D planes independently)
// fan a tensor's planes across a GOMAXPROCS-bounded worker pool, with
// sync.Pool-reused float32 scratch buffers for the packing/staging
// copies. DCT+Chop hands whole batches to its compiled compressor,
// which fans planes across internal/tensor's plane pool instead.
//
// Plane-framed payload layout (little-endian):
//
//	u32 plane count
//	u32 × count  per-plane payload lengths
//	concatenated per-plane payloads

// maxWorkers bounds pipeline concurrency. It tracks the scheduler's
// actual parallelism budget — runtime.GOMAXPROCS(0), not NumCPU — so a
// process confined to fewer Ps than cores does not oversubscribe.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers overrides the pipeline worker cap (not dctc's batched
// passes, which run on internal/tensor's plane pool) and returns the
// previous value. n < 1 resets to runtime.GOMAXPROCS(0). Tests pin the
// cap to 1 to make plane execution order deterministic; restore the
// returned value when done. Not safe to call concurrently with
// in-flight compressions.
func SetMaxWorkers(n int) int {
	prev := maxWorkers
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
	return prev
}

// forEachPlane runs fn(p) for p in [0, planes) on a bounded worker
// pool. Every claimed plane runs to completion and errors are collected
// per plane, so the same bad input always reports the lowest-indexed
// failing plane regardless of worker scheduling. Cancelling ctx is the
// one early exit: workers stop claiming planes and the context error is
// returned (wrapped, satisfying errors.Is) unless a plane that already
// ran failed first.
func forEachPlane(ctx context.Context, planes int, fn func(p int) error) error {
	if planes <= 0 {
		return nil
	}
	// context.Background and friends have a nil Done channel; skip the
	// per-plane cancellation checks entirely for them.
	cancellable := ctx.Done() != nil
	if cancellable && ctx.Err() != nil {
		return markErr(ErrCanceled, fmt.Errorf("codec: plane pipeline: %w", ctx.Err()))
	}
	workers := maxWorkers
	if workers > planes {
		workers = planes
	}
	if workers <= 1 {
		for p := 0; p < planes; p++ {
			if cancellable && ctx.Err() != nil {
				return markErr(ErrCanceled, fmt.Errorf("codec: plane pipeline cancelled before plane %d: %w", p, ctx.Err()))
			}
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	// Each worker writes only the slots it claimed; wg.Wait orders every
	// write before the scan below, so the slice needs no further locking.
	errs := make([]error, planes)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if cancellable && ctx.Err() != nil {
					return
				}
				p := int(next.Add(1)) - 1
				if p >= planes {
					return
				}
				errs[p] = fn(p)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancellable {
		if err := ctx.Err(); err != nil {
			claimed := int(next.Load())
			if claimed > planes {
				claimed = planes
			}
			return markErr(ErrCanceled, fmt.Errorf("codec: plane pipeline cancelled after claiming %d of %d planes: %w", claimed, planes, err))
		}
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

// byteScratchPool recycles byte staging buffers (plane-group reads,
// length tables) across streaming decodes.
var byteScratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getByteScratch returns a byte buffer of length n with arbitrary
// contents.
func getByteScratch(n int) []byte {
	bp := byteScratchPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// putByteScratch returns a buffer to the pool.
func putByteScratch(buf []byte) {
	byteScratchPool.Put(&buf)
}

// compressPlanes encodes every h×w plane of x concurrently with enc and
// assembles the plane-framed payload. Plane p is the zero-copy view of
// x.Data()[p·h·w : (p+1)·h·w] shaped [h, w]. A tensor whose length is
// not a whole number of planes is an error — silently truncating the
// tail would decode to a different tensor.
func compressPlanes(ctx context.Context, x *tensor.Tensor, h, w int, enc func(p int, plane *tensor.Tensor) ([]byte, error)) ([]byte, error) {
	if h < 1 || w < 1 {
		return nil, fmt.Errorf("codec: invalid plane size %d×%d", h, w)
	}
	if x.Len()%(h*w) != 0 {
		return nil, fmt.Errorf("codec: tensor length %d is not a whole number of %d×%d planes (%d trailing values)", x.Len(), h, w, x.Len()%(h*w))
	}
	planes := x.Len() / (h * w)
	parts := make([][]byte, planes)
	err := forEachPlane(ctx, planes, func(p int) error {
		plane := tensor.FromSlice(x.Data()[p*h*w:(p+1)*h*w], h, w)
		out, err := enc(p, plane)
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

// splitPlanePayloads validates a plane-framed payload against the
// expected plane count and returns the per-plane slices (views into
// payload). Called before any output allocation, so implausible frames
// fail cheaply. Lengths are validated as uint32 before conversion — on
// 32-bit platforms a length ≥ 2³¹ must not wrap negative.
func splitPlanePayloads(payload []byte, wantPlanes int) ([][]byte, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("codec: plane-framed payload truncated (%d bytes)", len(payload))
	}
	planeCount := binary.LittleEndian.Uint32(payload)
	if wantPlanes < 0 || planeCount != uint32(wantPlanes) {
		return nil, fmt.Errorf("codec: payload holds %d planes, shape implies %d", planeCount, wantPlanes)
	}
	planes := wantPlanes
	if len(payload) < 4+4*planes {
		return nil, fmt.Errorf("codec: plane length table truncated")
	}
	parts := make([][]byte, planes)
	off := 4 + 4*planes
	for p := 0; p < planes; p++ {
		plen32 := binary.LittleEndian.Uint32(payload[4+4*p:])
		if uint64(plen32) > uint64(len(payload)-off) {
			return nil, fmt.Errorf("codec: plane %d payload (%d bytes at offset %d) overruns frame", p, plen32, off)
		}
		plen := int(plen32)
		parts[p] = payload[off : off+plen]
		off += plen
	}
	if off != len(payload) {
		return nil, fmt.Errorf("codec: %d trailing bytes after plane payloads", len(payload)-off)
	}
	return parts, nil
}

// decompressPlanes decodes pre-split plane payloads concurrently into
// out's h×w planes. dec receives a zero-copy view of plane p; planes
// are disjoint, so concurrent writes are race-free.
func decompressPlanes(ctx context.Context, out *tensor.Tensor, h, w int, parts [][]byte, dec func(p int, data []byte, plane *tensor.Tensor) error) error {
	if want := out.Len() / (h * w); want != len(parts) {
		return fmt.Errorf("codec: %d plane payloads for %d planes", len(parts), want)
	}
	return decompressPlaneRange(ctx, out, h, w, 0, parts, dec)
}

// decompressPlaneRange decodes parts into out's planes
// [first, first+len(parts)) — the streaming decoder hands groups of
// planes through here as their bytes arrive, so out fills incrementally
// without the whole payload ever being resident.
func decompressPlaneRange(ctx context.Context, out *tensor.Tensor, h, w, first int, parts [][]byte, dec func(p int, data []byte, plane *tensor.Tensor) error) error {
	if last := first + len(parts); first < 0 || last > out.Len()/(h*w) {
		return fmt.Errorf("codec: plane range [%d,%d) outside tensor's %d planes", first, last, out.Len()/(h*w))
	}
	return forEachPlane(ctx, len(parts), func(i int) error {
		p := first + i
		plane := tensor.FromSlice(out.Data()[p*h*w:(p+1)*h*w], h, w)
		if err := dec(p, parts[i], plane); err != nil {
			return fmt.Errorf("codec: plane %d: %w", p, err)
		}
		return nil
	})
}
