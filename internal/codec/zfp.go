package codec

import (
	"context"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/tensor"
	"repro/internal/zfp"
)

// zfpBackend adapts the fixed-rate ZFP-style baseline. Spec:
// "zfp:rate=8" (bits per value, ratio 32/rate).
//
// Tensors of rank ≥ 2 whose trailing dims are multiples of the 4×4
// block edge take the planar layout (one pipeline job per plane).
// Other shapes are packed into zero-padded planeN×planeN planes, like
// the dctc flat path. The fixed rate is a per-plane byte budget, not an
// exact size: encodeBlock stops early on all-zero bit-plane tails, so
// real planes may come in under it (never over).
type zfpBackend struct {
	codec  *zfp.Codec
	planeN int
}

func init() {
	register("zfp", func(o *Options) (backend, error) {
		rate := o.Float("rate", 8)
		planeN := o.Int("planen", 0)
		c, err := zfp.New(rate)
		if err != nil {
			return nil, fmt.Errorf("codec: zfp: invalid value %g for key %q: %w", rate, "rate", err)
		}
		if planeN != 0 && (planeN < zfp.BlockSize || planeN > maxPlaneEdge || planeN%zfp.BlockSize != 0) {
			return nil, fmt.Errorf("codec: zfp: invalid value %d for key %q (want a positive multiple of %d up to %d)", planeN, "planen", zfp.BlockSize, maxPlaneEdge)
		}
		return &zfpBackend{codec: c, planeN: planeN}, nil
	})
}

func (b *zfpBackend) name() string   { return "zfp" }
func (b *zfpBackend) ratio() float64 { return b.codec.Ratio() }

func (b *zfpBackend) canonical() string {
	s := fmt.Sprintf("rate=%g", b.codec.Rate)
	if b.planeN != 0 {
		s += fmt.Sprintf(",planen=%d", b.planeN)
	}
	return s
}

func (b *zfpBackend) layout(s planeShape) (planeLayout, error) {
	var l planeLayout
	if s.rank >= 2 && s.h%zfp.BlockSize == 0 && s.w%zfp.BlockSize == 0 {
		l = planarLayout(modePlanar, s.h, s.w, s.n)
	} else {
		l = paddedLayout(flatEdge(b.planeN, zfp.BlockSize, s.n), s.n)
	}
	l.budget = b.codec.CompressedBytes(1, l.h, l.w)
	return l, nil
}

func (b *zfpBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	return planeEncode(ctx, b, x)
}

func (b *zfpBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	return planeDecode(ctx, b, src, shape)
}

// encodePlane emits the plane once, into the slice it returns: the
// layout's budget plus the emitter's 8 bytes of slack.
func (b *zfpBackend) encodePlane(l planeLayout, p int, plane []float32) ([]byte, error) {
	buf := make([]byte, l.budget+8)
	w := bitstream.NewEmitter(buf)
	if err := b.codec.EncodePlane(&w, plane, l.h, l.w); err != nil {
		return nil, err
	}
	return buf[:w.Len()], nil
}

// decodePlane decompresses straight into the caller's plane: a stack
// reader, no staging, no copy.
func (b *zfpBackend) decodePlane(l planeLayout, p int, data []byte, plane []float32) error {
	var br bitstream.Reader
	br.Reset(data)
	return b.codec.DecodePlane(&br, plane, l.h, l.w)
}

// roundTripPlane emits into pooled scratch and decodes from its own
// bytes.
func (b *zfpBackend) roundTripPlane(l planeLayout, p int, dst, src []float32) (int, error) {
	bp := getByteScratch(l.budget + 8)
	defer putByteScratch(bp)
	w := bitstream.NewEmitter(*bp)
	if err := b.codec.EncodePlane(&w, src, l.h, l.w); err != nil {
		return 0, err
	}
	var br bitstream.Reader
	br.Reset((*bp)[:w.Len()])
	return w.Len(), b.codec.DecodePlane(&br, dst, l.h, l.w)
}
