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

// This file is the shared batch pipeline and the plane engine. The
// plane-independent families (ZFP, SZ and JPEG code each trailing 2-D
// plane on its own) fan a tensor's planes out on internal/tensor's
// plane pool — the one pool DCT+Chop's batched passes and
// IndexedStream.DecodeRange use too, under the one cap SetMaxWorkers
// sets — with sync.Pool-reused float32 scratch buffers for the padding
// copies. A family supplies its layout rule and its per-plane calls
// (planeFamily); the engine owns the head, the zero padding, the plane
// frame and the fused round trip.
//
// Plane-framed payload layout (little-endian):
//
//	head   u8 mode (sz, zfp and dctc; jpegq writes none), then for a
//	       padded layout u32 plane edge and u32 value count
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

// getScratchNoZero returns a pooled scratch buffer of length n with
// arbitrary contents — for callers that overwrite every element before
// reading any (the padded decode paths decode into every plane, padded
// tail included, before copying out). Hand the pointer back to
// putScratch: pooling the pointer itself keeps the round trip
// allocation-free.
func getScratchNoZero(n int) *[]float32 {
	bp := scratchPool.Get().(*[]float32)
	if cap(*bp) < n {
		*bp = make([]float32, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// getScratch returns a zeroed pooled scratch buffer of length n — for
// callers that read elements they never wrote, like the padded encode
// paths whose zero tail is compressed along with the data.
func getScratch(n int) *[]float32 {
	bp := getScratchNoZero(n)
	clear(*bp)
	return bp
}

// putScratch returns a buffer to the pool; nil is a no-op.
func putScratch(bp *[]float32) {
	if bp != nil {
		scratchPool.Put(bp)
	}
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

// planeShape is what a layout rule reads of a tensor's shape: its rank,
// its element count and its trailing three dims (0 past the rank). It
// is a plain value, so the fused path fills it from x's Dim calls
// without cloning x's shape.
type planeShape struct{ rank, n, c, h, w int }

// shapeOf reads a shape's planeShape.
func shapeOf(shape []int) planeShape {
	s := planeShape{rank: len(shape), n: 1}
	var tail [3]int
	for i, d := range shape {
		s.n *= d
		if k := i + 3 - len(shape); k >= 0 {
			tail[k] = d
		}
	}
	s.c, s.h, s.w = tail[0], tail[1], tail[2]
	return s
}

// tensorShape is shapeOf(x.Shape()) without the clone.
func tensorShape(x *tensor.Tensor) planeShape {
	s := planeShape{rank: x.Dims(), n: x.Len()}
	var tail [3]int
	for k := max(0, 3-s.rank); k < 3; k++ {
		tail[k] = x.Dim(k - 3)
	}
	s.c, s.h, s.w = tail[0], tail[1], tail[2]
	return s
}

// Payload mode bytes.
const (
	noMode     = -1 // the family writes no mode byte (jpegq)
	modePlanar = 0  // the tensor's own trailing h×w planes
	modeFlat   = 1  // sz's one 1×len row, or zfp's and dctc's padded planes
)

// planeLayout is a family's layout of one tensor shape — the one value
// its encode writes, its decode checks and its fused round trip sizes:
// the head, then planes planes of h×w values, each framed in at most
// budget bytes (0: no budget).
type planeLayout struct {
	mode     int // the payload's mode byte, or noMode
	edge     int // > 0: the n values zero-padded into edge×edge planes
	n        int // the tensor's element count
	h, w     int
	planes   int
	budget   int
	channels int // jpegq: plane p quantizes with channel p % channels
}

// planarLayout lays n values out as the tensor's own h×w planes.
func planarLayout(mode, h, w, n int) planeLayout {
	return planeLayout{mode: mode, n: n, h: h, w: w, planes: n / (h * w)}
}

// paddedLayout packs n values row-major into edge×edge planes with a
// zero-padded tail, so any tensor meets a block-aligned plane shape.
func paddedLayout(edge, n int) planeLayout {
	return planeLayout{mode: modeFlat, edge: edge, n: n, h: edge, w: edge, planes: (n + edge*edge - 1) / (edge * edge)}
}

// maxPlaneEdge bounds a spec's planen: a padded decode sizes its scratch
// (and dctc its compiled plane) from the spec's edge before it reads a
// plane, so a record's spec must not claim more than 16M values a plane.
const maxPlaneEdge = 1 << 12

// flatEdge picks a padded layout's plane edge: the spec's planen when
// set, else the smallest multiple of step whose square covers the
// values, capped at 256.
func flatEdge(planeN, step, values int) int {
	if planeN != 0 {
		return planeN
	}
	n := step
	for n*n < values && n+step <= 256 {
		n += step
	}
	return n
}

// headLen is the length of l's head.
func (l planeLayout) headLen() int {
	n := 0
	if l.mode != noMode {
		n++
	}
	if l.edge > 0 {
		n += 8
	}
	return n
}

// payloadLen is the length of l's payload whose planes are planeBytes
// long in all: the head, the plane frame and the planes.
func (l planeLayout) payloadLen(planeBytes int) int {
	return l.headLen() + 4 + 4*l.planes + planeBytes
}

// appendHead appends l's head to dst: the mode byte, and for a padded
// layout the plane edge and the exact value count. The count rides in
// the head because the padded plane geometry alone cannot tell claimed
// lengths within one plane apart.
func (l planeLayout) appendHead(dst []byte) []byte {
	if l.mode != noMode {
		dst = append(dst, byte(l.mode))
	}
	if l.edge > 0 {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l.edge))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l.n))
	}
	return dst
}

// readHead reads the head of a payload of the given shape, laid out as
// l, and checks it against l: the mode byte, and for a padded layout
// the plane edge and the value count.
func (l planeLayout) readHead(src payloadSource, family string, shape []int) error {
	if l.mode == noMode {
		return nil
	}
	head, err := src.next(1)
	if err != nil {
		return fmt.Errorf("%s: reading payload mode: %w", family, err)
	}
	if int(head[0]) != l.mode {
		return fmt.Errorf("%s: payload mode %d does not match shape %v", family, head[0], shape)
	}
	if l.edge == 0 {
		return nil
	}
	if head, err = src.next(8); err != nil {
		return fmt.Errorf("%s: flat payload truncated: %w", family, err)
	}
	if edge := binary.LittleEndian.Uint32(head); edge != uint32(l.edge) {
		return fmt.Errorf("%s: flat payload plane edge %d, shape %v packs into %d", family, edge, shape, l.edge)
	}
	if n := binary.LittleEndian.Uint32(head[4:]); n != uint32(l.n) {
		return fmt.Errorf("%s: flat payload holds %d values, shape %v implies %d", family, n, shape, l.n)
	}
	return nil
}

// values returns the planes·h·w values l's planes cover: x itself for a
// planar layout, else pooled scratch — holding x and a zero tail when
// fill, arbitrary values when not — and its pointer for putScratch
// (nil for x itself).
func (l planeLayout) values(x []float32, fill bool) ([]float32, *[]float32) {
	if l.edge == 0 {
		return x, nil
	}
	if !fill {
		sp := getScratchNoZero(l.planes * l.h * l.w)
		return *sp, sp
	}
	sp := getScratch(l.planes * l.h * l.w)
	copy(*sp, x)
	return *sp, sp
}

// planeFamily is a plane-framed family: its layout rule and its three
// per-plane calls. sz, zfp and jpegq are plane families; their encode
// and decode are planeEncode and planeDecode, and RoundTripInto runs
// them unstaged through planeRoundTrip.
type planeFamily interface {
	backend
	// layout lays out a tensor of shape s, s.n > 0, or refuses it
	// with the error every path returns.
	layout(s planeShape) (planeLayout, error)
	// encodePlane encodes plane p of l.
	encodePlane(l planeLayout, p int, plane []float32) ([]byte, error)
	// decodePlane decodes plane p of l from data into plane.
	decodePlane(l planeLayout, p int, data []byte, plane []float32) error
	// roundTripPlane writes into dst what decodePlane makes of
	// encodePlane(l, p, src), bit for bit, and returns the encoded
	// length. dst may be src itself.
	roundTripPlane(l planeLayout, p int, dst, src []float32) (int, error)
}

// layoutOf is f's layout of s; an empty tensor has none.
func layoutOf(f planeFamily, s planeShape) (planeLayout, error) {
	if s.n == 0 {
		return planeLayout{}, fmt.Errorf("%s: empty tensor", f.name())
	}
	return f.layout(s)
}

// planeEncode is a plane family's encode: x's head and plane frame, its
// planes encoded concurrently.
func planeEncode(ctx context.Context, f planeFamily, x *tensor.Tensor) ([]byte, error) {
	l, err := layoutOf(f, tensorShape(x))
	if err != nil {
		return nil, err
	}
	vals, sp := l.values(x.Data(), true)
	defer putScratch(sp)
	return compressPlanes(ctx, l, vals, func(p int, plane []float32) ([]byte, error) {
		return f.encodePlane(l, p, plane)
	})
}

// planeDecode is a plane family's decode. The head and the plane frame
// are checked against the shape's layout before the output is
// allocated; each plane then decodes straight into the output, or a
// padded layout's into scratch before the copy-out.
func planeDecode(ctx context.Context, f planeFamily, src payloadSource, shape []int) (*tensor.Tensor, error) {
	l, err := layoutOf(f, shapeOf(shape))
	if err != nil {
		return nil, err
	}
	if err := l.readHead(src, f.name(), shape); err != nil {
		return nil, err
	}
	frame, err := readPlaneFrame(src, l.planes, l.budget, false)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape...)
	// Every padded plane, tail included, is decoded before the
	// copy-out, so the scratch needs no zeroing.
	vals, sp := l.values(out.Data(), false)
	defer putScratch(sp)
	err = frame.decodePlanes(ctx, vals, l.h, l.w, func(p int, data []byte, plane []float32) error {
		return f.decodePlane(l, p, data, plane)
	})
	if err != nil {
		return nil, err
	}
	if sp != nil {
		copy(out.Data(), vals)
	}
	return out, nil
}

// roundTripJob is planeRoundTrip's job on the plane pool: plane p of x
// round-trips into plane p of dst, and its encoded length adds to
// bytes. Pooled with run, its runPlane method value bound once, so a
// round trip allocates nothing.
type roundTripJob struct {
	f      planeFamily
	l      planeLayout
	dst, x []float32
	bytes  atomic.Int64
	run    func(p int) error
}

var roundTripJobs = sync.Pool{New: func() any {
	j := new(roundTripJob)
	j.run = j.runPlane
	return j
}}

func (j *roundTripJob) runPlane(p int) error {
	n := j.l.h * j.l.w
	size, err := j.f.roundTripPlane(j.l, p, j.dst[p*n:(p+1)*n], j.x[p*n:(p+1)*n])
	if err != nil {
		return fmt.Errorf("codec: plane %d: %w", p, err)
	}
	j.bytes.Add(int64(size))
	return nil
}

// planeRoundTrip is a plane family's fused round trip: every plane of
// x round-trips into dst through roundTripPlane on the plane pool, and
// no payload is framed. It reports the length planeEncode's payload
// has, from the same layout. A padded layout round-trips in the
// scratch holding x, and an in-place planar one (dst == x) into
// scratch, so a plane refused after others have passed leaves x whole.
func planeRoundTrip(f planeFamily, dst, x *tensor.Tensor) (int, error) {
	l, err := layoutOf(f, tensorShape(x))
	if err != nil {
		return 0, err
	}
	vals, sp := l.values(x.Data(), true)
	out := vals
	if sp == nil {
		if out = dst.Data(); &out[0] == &vals[0] {
			sp = getScratchNoZero(len(out))
			out = *sp
		}
	}
	defer putScratch(sp)
	j := roundTripJobs.Get().(*roundTripJob)
	j.f, j.l, j.dst, j.x = f, l, out, vals
	j.bytes.Store(0)
	err = forEachPlane(context.Background(), l.planes, j.run)
	n := l.payloadLen(int(j.bytes.Load()))
	j.f, j.dst, j.x = nil, nil, nil
	roundTripJobs.Put(j)
	if err != nil {
		return 0, err
	}
	if sp != nil {
		copy(dst.Data(), out)
	}
	return n, nil
}

// compressPlanes encodes the l.planes h×w planes of x concurrently with
// enc and assembles the payload: l's head, then the plane frame. enc
// receives plane p as the zero-copy view x[p·h·w : (p+1)·h·w]. A length
// that is not the layout's whole number of planes is an error —
// silently truncating the tail would decode to a different tensor.
func compressPlanes(ctx context.Context, l planeLayout, x []float32, enc func(p int, plane []float32) ([]byte, error)) ([]byte, error) {
	hw := l.h * l.w
	if hw < 1 || len(x) != l.planes*hw {
		return nil, fmt.Errorf("codec: tensor length %d is not %d whole %d×%d planes (%d trailing values)", len(x), l.planes, l.h, l.w, len(x)-l.planes*hw)
	}
	parts := make([][]byte, l.planes)
	err := forEachPlane(ctx, l.planes, func(p int) error {
		out, err := enc(p, x[p*hw:(p+1)*hw])
		if err != nil {
			return fmt.Errorf("codec: plane %d: %w", p, err)
		}
		parts[p] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	payload := l.appendHead(make([]byte, 0, l.payloadLen(total)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(l.planes))
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
