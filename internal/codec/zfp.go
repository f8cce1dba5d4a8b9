package codec

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/tensor"
	"repro/internal/zfp"
)

// zfpBackend adapts the fixed-rate ZFP-style baseline. Spec:
// "zfp:rate=8" (bits per value, ratio 32/rate).
//
// Tensors of rank ≥ 2 whose trailing dims are multiples of the 4×4
// block edge take the planar path (one pipeline job per plane). Other
// shapes are packed into zero-padded planeN×planeN planes, like the
// dctc flat path.
type zfpBackend struct {
	codec  *zfp.Codec
	planeN int
}

const (
	zfpModePlanar = 0
	zfpModeFlat   = 1
)

func init() {
	register("zfp", func(o *Options) (backend, error) {
		rate := o.Float("rate", 8)
		planeN := o.Int("planen", 0)
		c, err := zfp.New(rate)
		if err != nil {
			return nil, fmt.Errorf("codec: zfp: invalid value %g for key %q: %w", rate, "rate", err)
		}
		if planeN != 0 && (planeN < zfp.BlockSize || planeN%zfp.BlockSize != 0) {
			return nil, fmt.Errorf("codec: zfp: invalid value %d for key %q (want a positive multiple of %d)", planeN, "planen", zfp.BlockSize)
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

// planar reports whether shape takes the planar path, returning (h, w).
func planarHW(shape []int, blockSize int) (int, int, bool) {
	if len(shape) < 2 {
		return 0, 0, false
	}
	h, w := shape[len(shape)-2], shape[len(shape)-1]
	return h, w, h%blockSize == 0 && w%blockSize == 0
}

// flatPlaneN picks the flat-path plane edge: the spec's planen when
// set, else the smallest block-multiple whose square covers the values,
// capped at 256.
func (b *zfpBackend) flatPlaneN(values int) int {
	if b.planeN != 0 {
		return b.planeN
	}
	n := zfp.BlockSize
	for n*n < values && n+zfp.BlockSize <= 256 {
		n += zfp.BlockSize
	}
	return n
}

func (b *zfpBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	if x.Len() == 0 {
		return nil, fmt.Errorf("zfp: empty tensor")
	}
	if h, w, ok := planarHW(x.Shape(), zfp.BlockSize); ok {
		framed, err := compressPlanes(ctx, x.Data(), h, w, b.planeEnc(h, w))
		if err != nil {
			return nil, err
		}
		return append([]byte{zfpModePlanar}, framed...), nil
	}
	planeN := b.flatPlaneN(x.Len())
	plane := planeN * planeN
	nplanes := (x.Len() + plane - 1) / plane
	// The zero-padded tail is compressed along with the data, so this
	// scratch must be zeroed.
	scratch := getScratch(nplanes * plane)
	defer putScratch(scratch)
	copy(scratch, x.Data())
	framed, err := compressPlanes(ctx, scratch, planeN, planeN, b.planeEnc(planeN, planeN))
	if err != nil {
		return nil, err
	}
	// As in the dctc flat path, the exact element count rides in the
	// header: the padded plane geometry alone cannot pin the claimed
	// length, so decode cross-checks it against the shape.
	head := []byte{zfpModeFlat, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(head[1:], uint32(planeN))
	binary.LittleEndian.PutUint32(head[5:], uint32(x.Len()))
	return append(head, framed...), nil
}

func (b *zfpBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	head, err := src.next(1)
	if err != nil {
		return nil, fmt.Errorf("zfp: reading payload mode: %w", err)
	}
	mode := head[0]
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	// The fixed rate is a per-plane byte budget, not an exact size:
	// encodeBlock stops early on all-zero bit-plane tails, so real
	// payloads may come in under it (never over).
	switch mode {
	case zfpModePlanar:
		h, w, ok := planarHW(shape, zfp.BlockSize)
		if !ok {
			return nil, fmt.Errorf("zfp: planar payload but shape %v has no %d-aligned planes", shape, zfp.BlockSize)
		}
		frame, err := readPlaneFrame(src, elems/(h*w), b.codec.CompressedBytes(1, h, w), false)
		if err != nil {
			return nil, err
		}
		out := tensor.New(shape...)
		if err := frame.decodePlanes(ctx, out.Data(), h, w, b.planeDec(h, w)); err != nil {
			return nil, err
		}
		return out, nil
	case zfpModeFlat:
		head, err := src.next(8)
		if err != nil {
			return nil, fmt.Errorf("zfp: flat payload truncated: %w", err)
		}
		planeN := int(binary.LittleEndian.Uint32(head))
		if planeN < zfp.BlockSize || planeN > 1<<12 || planeN%zfp.BlockSize != 0 {
			return nil, fmt.Errorf("zfp: implausible flat plane edge %d", planeN)
		}
		if encElems := binary.LittleEndian.Uint32(head[4:]); encElems != uint32(elems) {
			return nil, fmt.Errorf("zfp: flat payload holds %d values, shape %v implies %d", encElems, shape, elems)
		}
		plane := planeN * planeN
		nplanes := (elems + plane - 1) / plane
		frame, err := readPlaneFrame(src, nplanes, b.codec.CompressedBytes(1, planeN, planeN), false)
		if err != nil {
			return nil, err
		}
		out := tensor.New(shape...)
		// Every plane, padded tail included, is decoded into the
		// scratch before the copy-out, so no zeroing is needed.
		scratch := getScratchNoZero(nplanes * plane)
		defer putScratch(scratch)
		if err := frame.decodePlanes(ctx, scratch, planeN, planeN, b.planeDec(planeN, planeN)); err != nil {
			return nil, err
		}
		copy(out.Data(), scratch[:out.Len()])
		return out, nil
	default:
		return nil, fmt.Errorf("zfp: unknown payload mode %d", mode)
	}
}

// planeEnc returns the encoder of h×w planes: each compresses on a
// pooled bit writer, and the only per-plane allocation is the payload
// hand-off copy itself.
func (b *zfpBackend) planeEnc(h, w int) func(p int, plane []float32) ([]byte, error) {
	return func(p int, plane []float32) ([]byte, error) {
		bw := bitstream.GetWriter()
		defer bitstream.PutWriter(bw)
		b.codec.EncodePlane(bw, plane, h, w)
		return append([]byte(nil), bw.Bytes()...), nil
	}
}

// planeDec returns the decoder of h×w planes: each decompresses its
// stream straight into the caller's plane — a stack reader, no staging
// tensor, no copy.
func (b *zfpBackend) planeDec(h, w int) func(p int, data []byte, plane []float32) error {
	return func(p int, data []byte, plane []float32) error {
		var br bitstream.Reader
		br.Reset(data)
		return b.codec.DecodePlane(&br, plane, h, w)
	}
}

// fastRoundTripInto round-trips planar batches through the pooled
// plane engine without materializing the payload: each plane's bits
// are written, sealed and decoded in place from the writer's own
// buffer. Non-planar shapes take the serialize path.
func (b *zfpBackend) fastRoundTripInto(dst, x *tensor.Tensor) (int, error) {
	// Dim/Dims instead of Shape(): Shape clones its slice, and this
	// path must stay allocation-free.
	if x.Dims() < 2 || x.Len() == 0 || x.Dim(-2)%zfp.BlockSize != 0 || x.Dim(-1)%zfp.BlockSize != 0 {
		return 0, errNoFastPath
	}
	h, w := x.Dim(-2), x.Dim(-1)
	planes := x.Len() / (h * w)
	total := 1 + 4 + 4*planes // mode byte + plane-frame header
	bw := bitstream.GetWriter()
	defer bitstream.PutWriter(bw)
	var br bitstream.Reader
	xd, dd := x.Data(), dst.Data()
	for p := 0; p < planes; p++ {
		bw.Reset()
		b.codec.EncodePlane(bw, xd[p*h*w:(p+1)*h*w], h, w)
		data := bw.Bytes()
		total += len(data)
		br.Reset(data)
		if err := b.codec.DecodePlane(&br, dd[p*h*w:(p+1)*h*w], h, w); err != nil {
			return 0, fmt.Errorf("zfp: plane %d: %w", p, err)
		}
	}
	return total, nil
}
