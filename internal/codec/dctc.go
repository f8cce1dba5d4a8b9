package codec

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/codec/tensorio"
	"repro/internal/core"
	"repro/internal/tensor"
)

// dctcBackend adapts the paper's DCT+Chop compressor (internal/core) to
// the registry. Spec: "dctc:cf=4,s=2,sg,transform=zfp4,planen=64" (all
// keys optional).
//
// Image batches [BD, C, n, n] whose resolution satisfies the config's
// block/serialization divisibility take the planar path: the batch is
// compressed in one batched pass and the payload is each plane's raw
// float32 chunk data (size known from the config, so no per-plane
// headers). Every other shape takes the flat path — values are packed
// row-major into planeN×planeN planes with a zero-padded tail, so any
// tensor (an activation, a gradient) meets the compiled plane shape —
// marked by the payload's mode byte.
//
// dctc has no fused fastRoundTripInto: its round trips take the
// batched serialize path (DESIGN.md §5 records why).
type dctcBackend struct {
	cfg    core.Config
	planeN int // flat-path plane edge (0 = auto)

	mu    sync.Mutex
	comps map[int]*core.Compressor // compiled per resolution or flat plane edge
}

const (
	dctcModePlanar = 0
	dctcModeFlat   = 1
)

func init() {
	register("dctc", func(o *Options) (backend, error) {
		cfg := core.Config{
			ChopFactor:    o.Int("cf", 4),
			Serialization: o.Int("s", 1),
		}
		if o.Bool("sg", false) {
			cfg.Mode = core.ModeSG
		}
		switch tr := o.String("transform", "dct8"); tr {
		case "dct8":
		case "zfp4":
			cfg.Transform = core.TransformZFP4
		default:
			return nil, fmt.Errorf("codec: dctc: invalid value %q for key %q (want dct8 or zfp4)", tr, "transform")
		}
		b := &dctcBackend{
			cfg:    cfg,
			planeN: o.Int("planen", 0),
			comps:  map[int]*core.Compressor{},
		}
		// Validate eagerly against the smallest legal resolution so bad
		// options fail at New, not at first Compress.
		bs := cfg.Transform.BlockSizeOf()
		if cfg.Serialization < 1 {
			return nil, fmt.Errorf("codec: dctc: invalid value %d for key %q (want ≥ 1)", cfg.Serialization, "s")
		}
		if err := cfg.Validate(bs * cfg.Serialization); err != nil {
			return nil, fmt.Errorf("codec: dctc: %w", err)
		}
		if b.planeN != 0 {
			if err := cfg.Validate(b.planeN); err != nil {
				return nil, fmt.Errorf("codec: dctc: invalid value %d for key %q: %w", b.planeN, "planen", err)
			}
		}
		return b, nil
	})
}

func (b *dctcBackend) name() string   { return "dctc" }
func (b *dctcBackend) ratio() float64 { return b.cfg.Ratio() }

func (b *dctcBackend) canonical() string {
	s := fmt.Sprintf("cf=%d", b.cfg.ChopFactor)
	if b.cfg.Serialization > 1 {
		s += fmt.Sprintf(",s=%d", b.cfg.Serialization)
	}
	if b.cfg.Mode == core.ModeSG {
		s += ",sg"
	}
	if b.cfg.Transform == core.TransformZFP4 {
		s += ",transform=zfp4"
	}
	if b.planeN != 0 {
		s += fmt.Sprintf(",planen=%d", b.planeN)
	}
	return s
}

// compilerFor returns the cached compiled compressor for resolution n.
func (b *dctcBackend) compilerFor(n int) (*core.Compressor, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c, ok := b.comps[n]; ok {
		return c, nil
	}
	c, err := core.NewCompressor(b.cfg, n)
	if err != nil {
		return nil, err
	}
	b.comps[n] = c
	return c, nil
}

// planar reports whether shape takes the planar path, returning n.
func (b *dctcBackend) planar(shape []int) (int, bool) {
	if len(shape) != 4 || shape[2] != shape[3] {
		return 0, false
	}
	n := shape[2]
	return n, b.cfg.Validate(n) == nil
}

// flatPlaneN picks the flat-path plane edge for a value count: the
// spec's planen when set, else the smallest legal multiple of
// blocksize·s whose square covers the values, capped at 256.
func (b *dctcBackend) flatPlaneN(values int) int {
	if b.planeN != 0 {
		return b.planeN
	}
	step := b.cfg.Transform.BlockSizeOf() * b.cfg.Serialization
	n := step
	for n*n < values && n+step <= 256 {
		n += step
	}
	return n
}

// encode compresses every plane in one batched CompressInto on the
// compiled compressor's pooled payload, then frames it: each plane's
// s×s chunks of raw float32 values, in plane order.
func (b *dctcBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, markErr(ErrCanceled, fmt.Errorf("dctc: encode cancelled: %w", err))
	}
	head, batch := []byte{dctcModePlanar}, x
	n, ok := b.planar(x.Shape())
	if !ok {
		if x.Len() == 0 {
			return nil, fmt.Errorf("dctc: empty tensor")
		}
		// Pack the values row-major into n×n planes. The padded tail is
		// compressed along with the data, so the scratch is zeroed. The
		// flat header records the exact element count alongside the
		// plane edge: the plane count alone cannot distinguish claimed
		// lengths within one padded plane, so without it a corrupted
		// (v1, un-CRC'd) dims field could round-trip to a silently
		// wrong tensor.
		n = b.flatPlaneN(x.Len())
		scratch := getScratch((x.Len() + n*n - 1) / (n * n) * n * n)
		defer putScratch(scratch)
		copy(scratch, x.Data())
		batch = tensor.FromSlice(scratch, len(scratch)/(n*n), 1, n, n)
		head = binary.LittleEndian.AppendUint32([]byte{dctcModeFlat}, uint32(n))
		head = binary.LittleEndian.AppendUint32(head, uint32(x.Len()))
	}
	comp, err := b.compilerFor(n)
	if err != nil {
		return nil, err
	}
	y := comp.AcquireCompressed()
	defer comp.ReleaseCompressed(y)
	if err := comp.CompressInto(y, batch); err != nil {
		return nil, err
	}
	planes, cv := batch.Len()/(n*n), comp.ChunkValues()
	payload := append(make([]byte, 0, len(head)+b.framedSize(comp, planes)), head...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(planes))
	for p := 0; p < planes; p++ {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(4*len(y.Chunks)*cv))
	}
	for p := 0; p < planes; p++ {
		for _, chunk := range y.Chunks {
			payload = tensorio.Float32sToBytes(payload, chunk.Data()[p*cv:(p+1)*cv])
		}
	}
	return payload, nil
}

// decode reads the mode byte (and, for the flat mode, the plane edge
// and element count), then the plane-framed planes. The frame must
// list every plane at the fixed compressed size, which pins the payload
// size before the output tensor is allocated.
func (b *dctcBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	head, err := src.next(1)
	if err != nil {
		return nil, fmt.Errorf("dctc: reading payload mode: %w", err)
	}
	mode := head[0]
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	n, ok := b.planar(shape)
	switch mode {
	case dctcModePlanar:
		if !ok {
			return nil, fmt.Errorf("dctc: planar payload but shape %v is not a compatible [BD,C,n,n] batch", shape)
		}
	case dctcModeFlat:
		head, err := src.next(8)
		if err != nil {
			return nil, fmt.Errorf("dctc: flat payload truncated: %w", err)
		}
		n = int(binary.LittleEndian.Uint32(head))
		if n < 1 || n > 1<<12 {
			return nil, fmt.Errorf("dctc: implausible flat plane edge %d", n)
		}
		if encElems := binary.LittleEndian.Uint32(head[4:]); encElems != uint32(elems) {
			return nil, fmt.Errorf("dctc: flat payload holds %d values, shape %v implies %d", encElems, shape, elems)
		}
	default:
		return nil, fmt.Errorf("dctc: unknown payload mode %d", mode)
	}
	comp, err := b.compilerFor(n)
	if err != nil {
		return nil, err
	}
	planes := (elems + n*n - 1) / (n * n)
	ss := b.cfg.Serialization * b.cfg.Serialization
	cv := comp.ChunkValues()
	frame, err := readPlaneFrame(src, planes, 4*ss*cv, true)
	if err != nil {
		return nil, err
	}
	defer frame.release()
	out := tensor.New(shape...)
	dst := out.Data()
	if mode == dctcModeFlat {
		// Every flat plane, padded tail included, is decoded into the
		// scratch before the copy-out, so no zeroing is needed.
		dst = getScratchNoZero(planes * n * n)
		defer putScratch(dst)
	}
	// Each group decodes in one batched DecompressInto: the payload
	// stores each plane's s×s chunks together, core.Compressed each
	// chunk's planes together.
	var vals []float32
	chunkShape := append([]int{0, 1}, comp.CompressedPlaneShape()...)
	for frame.taken < planes {
		p0, p1, data, err := frame.group(ctx)
		if err != nil {
			return nil, err
		}
		g := p1 - p0
		if vals == nil {
			// The first group is the largest: every plane is one size. A
			// record's reader keeps its staging across records, so a
			// stream of large planes does not re-take megabytes of
			// pooled scratch per record.
			if r, ok := src.(*payloadReader); ok {
				vals = r.staging(g * ss * cv)
			} else {
				vals = getScratchNoZero(g * ss * cv)
				defer putScratch(vals)
			}
		}
		y := &core.Compressed{Config: b.cfg, BatchSize: g, Channels: 1, N: n}
		chunkShape[0] = g
		for ci := 0; ci < ss; ci++ {
			chunk := vals[ci*g*cv : (ci+1)*g*cv]
			for p := 0; p < g; p++ {
				tensorio.DecodeFloat32s(chunk[p*cv:(p+1)*cv], data[4*(p*ss+ci)*cv:])
			}
			y.Chunks = append(y.Chunks, tensor.FromSlice(chunk, chunkShape...))
		}
		if err := comp.DecompressInto(tensor.FromSlice(dst[p0*n*n:p1*n*n], g, 1, n, n), y); err != nil {
			return nil, err
		}
	}
	if mode == dctcModeFlat {
		copy(out.Data(), dst)
	}
	return out, nil
}

// Compiler exposes the compiled core.Compressor behind a dctc codec at
// resolution n — the device-simulation path in cmd/acc-compress needs
// the raw compress graph to hand to an accelerator backend. It errors
// for codecs of any other family.
func Compiler(c Codec, n int) (*core.Compressor, error) {
	impl, ok := c.(*codecImpl)
	if !ok {
		return nil, fmt.Errorf("codec: %T is not a registry codec", c)
	}
	b, ok := impl.b.(*dctcBackend)
	if !ok {
		return nil, fmt.Errorf("codec: device simulation requires a dctc codec, got %q", c.Name())
	}
	return b.compilerFor(n)
}

// framedSize is the plane-framed length of planes compressed planes,
// each its s×s chunks of raw float32 values.
func (b *dctcBackend) framedSize(comp *core.Compressor, planes int) int {
	s := b.cfg.Serialization
	return 4 + planes*(4+4*s*s*comp.ChunkValues())
}
