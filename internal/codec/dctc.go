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
// block/serialization divisibility take the planar layout: the batch is
// compressed in one batched pass and the payload is each plane's raw
// float32 chunk data (size known from the config, so every plane is
// framed at one fixed size). Every other shape takes the padded layout
// — values are packed row-major into planeN×planeN planes with a
// zero-padded tail, so any tensor (an activation, a gradient) meets the
// compiled plane shape. The head is the plane engine's (pipeline.go).
//
// dctc is not a plane family: its planes go through core in batches,
// and its round trips take the batched serialize path (DESIGN.md §5
// records why).
type dctcBackend struct {
	cfg    core.Config
	planeN int // flat-path plane edge (0 = auto)

	mu    sync.Mutex
	comps map[int]*core.Compressor // compiled per resolution or flat plane edge
}

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
		if b.planeN > maxPlaneEdge {
			return nil, fmt.Errorf("codec: dctc: invalid value %d for key %q (want at most %d)", b.planeN, "planen", maxPlaneEdge)
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

// layout is dctc's layout of shape s: the tensor's own n×n planes when
// it is a compatible [BD,C,n,n] batch, else padded planes whose edge is
// the spec's planen or the smallest legal multiple of blocksize·s that
// covers the values.
func (b *dctcBackend) layout(s planeShape) planeLayout {
	if s.rank == 4 && s.h == s.w && b.cfg.Validate(s.h) == nil {
		return planarLayout(modePlanar, s.h, s.w, s.n)
	}
	return paddedLayout(flatEdge(b.planeN, b.cfg.Transform.BlockSizeOf()*b.cfg.Serialization, s.n), s.n)
}

// encode compresses every plane in one batched CompressInto on the
// compiled compressor's pooled payload, then frames it: each plane's
// s×s chunks of raw float32 values, in plane order.
func (b *dctcBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, markErr(ErrCanceled, fmt.Errorf("dctc: encode cancelled: %w", err))
	}
	l := b.layout(tensorShape(x))
	if l.edge > 0 && l.n == 0 {
		return nil, fmt.Errorf("dctc: empty tensor")
	}
	vals, sp := l.values(x.Data(), true)
	defer putScratch(sp)
	batch := x
	if sp != nil {
		batch = tensor.FromSlice(vals, l.planes, 1, l.h, l.w)
	}
	comp, err := b.compilerFor(l.h)
	if err != nil {
		return nil, err
	}
	y := comp.AcquireCompressed()
	defer comp.ReleaseCompressed(y)
	if err := comp.CompressInto(y, batch); err != nil {
		return nil, err
	}
	cv := comp.ChunkValues()
	planeBytes := 4 * len(y.Chunks) * cv
	payload := l.appendHead(make([]byte, 0, l.payloadLen(l.planes*planeBytes)))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(l.planes))
	for p := 0; p < l.planes; p++ {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(planeBytes))
	}
	for p := 0; p < l.planes; p++ {
		for _, chunk := range y.Chunks {
			payload = tensorio.Float32sToBytes(payload, chunk.Data()[p*cv:(p+1)*cv])
		}
	}
	return payload, nil
}

// decode checks the head against the shape's layout, then reads the
// plane frame, which must list every plane at the fixed compressed
// size: that pins the payload size before the output tensor is
// allocated.
func (b *dctcBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	l := b.layout(shapeOf(shape))
	if err := l.readHead(src, "dctc", shape); err != nil {
		return nil, err
	}
	n := l.h
	comp, err := b.compilerFor(n)
	if err != nil {
		return nil, err
	}
	ss := b.cfg.Serialization * b.cfg.Serialization
	cv := comp.ChunkValues()
	frame, err := readPlaneFrame(src, l.planes, 4*ss*cv, true)
	if err != nil {
		return nil, err
	}
	defer frame.release()
	out := tensor.New(shape...)
	// Every padded plane, tail included, is decoded before the
	// copy-out, so the scratch needs no zeroing.
	dst, sp := l.values(out.Data(), false)
	defer putScratch(sp)
	// Each group decodes in one batched DecompressInto: the payload
	// stores each plane's s×s chunks together, core.Compressed each
	// chunk's planes together.
	var vals []float32
	chunkShape := append([]int{0, 1}, comp.CompressedPlaneShape()...)
	for frame.taken < l.planes {
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
				vp := getScratchNoZero(g * ss * cv)
				defer putScratch(vp)
				vals = *vp
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
	if sp != nil {
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
