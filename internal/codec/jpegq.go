package codec

import (
	"context"
	"fmt"

	"repro/internal/jpegq"
	"repro/internal/tensor"
)

// jpegqBackend adapts the JPEG-style quantization pipeline. Spec:
// "jpegq:q=50" (quality factor 1–100).
//
// The codec is image-specific: it requires [BD, C, n, n] batches with
// values nominally in [0,1] and block-aligned resolutions, and its
// payload has no mode byte. Channel 0 of every sample quantizes with
// the luminance table and the remaining channels with chrominance, as
// jpegq.Codec.TableFor assigns them; each plane is a standalone
// RLE+Huffman stream on the shared pipeline.
type jpegqBackend struct {
	codec *jpegq.Codec
}

// maxJPEGQExpansion bounds the output elements a jpegq payload byte may
// claim. The entropy coder spends a few bits per 8×8 block even on
// all-zero planes, so genuine streams stay far below 512 values/byte;
// a corrupted header claiming a huge shape over a tiny payload fails
// here before the output allocation.
const maxJPEGQExpansion = 512

func init() {
	register("jpegq", func(o *Options) (backend, error) {
		q := o.Int("q", 50)
		c, err := jpegq.NewCodec(q)
		if err != nil {
			return nil, fmt.Errorf("codec: jpegq: invalid value %d for key %q: %w", q, "q", err)
		}
		return &jpegqBackend{codec: c}, nil
	})
}

func (b *jpegqBackend) name() string   { return "jpegq" }
func (b *jpegqBackend) ratio() float64 { return 0 } // data-dependent (VLE stage)

func (b *jpegqBackend) canonical() string {
	return fmt.Sprintf("q=%d", b.codec.Quality)
}

func (b *jpegqBackend) layout(s planeShape) (planeLayout, error) {
	if s.rank != 4 {
		return planeLayout{}, fmt.Errorf("jpegq: needs [BD,C,n,n] image batches, got a rank-%d tensor", s.rank)
	}
	if s.h%jpegq.BlockSize != 0 || s.w%jpegq.BlockSize != 0 {
		return planeLayout{}, fmt.Errorf("jpegq: resolution %dx%d not a multiple of %d", s.h, s.w, jpegq.BlockSize)
	}
	l := planarLayout(noMode, s.h, s.w, s.n)
	l.channels = s.c
	return l, nil
}

func (b *jpegqBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	return planeEncode(ctx, b, x)
}

func (b *jpegqBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	if elems := shapeOf(shape).n; elems > maxJPEGQExpansion*src.len() {
		return nil, fmt.Errorf("jpegq: %d-byte payload implausibly small for %d elements", src.len(), elems)
	}
	return planeDecode(ctx, b, src, shape)
}

// The channel index picks the quantization table, the same on every
// path.
func (b *jpegqBackend) encodePlane(l planeLayout, p int, plane []float32) ([]byte, error) {
	return b.codec.EncodePlane(plane, l.h, l.w, p%l.channels)
}

func (b *jpegqBackend) decodePlane(l planeLayout, p int, data []byte, plane []float32) error {
	return b.codec.DecodePlane(data, plane, l.h, l.w, p%l.channels)
}

// roundTripPlane dequantizes from the quantized coefficients
// themselves: vle.FlatLen sizes the plane's stream, and it is never
// coded.
func (b *jpegqBackend) roundTripPlane(l planeLayout, p int, dst, src []float32) (int, error) {
	return b.codec.RoundTripPlane(dst, src, l.h, l.w, p%l.channels)
}
