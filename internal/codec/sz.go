package codec

import (
	"context"
	"fmt"

	"repro/internal/sz"
	"repro/internal/tensor"
	"repro/internal/vle"
)

// szBackend adapts the error-bounded SZ-style baseline. Spec:
// "sz:eb=1e-3" (absolute pointwise error bound).
//
// Rank ≥ 2 tensors take the planar layout — one pipeline job per
// trailing 2-D plane, any plane size. A rank-1 tensor is one 1×len row.
// vle codes each row as one block, whose size its header holds in 16
// bits, so a row wider than vle.MaxFlatBlock is refused on every path.
type szBackend struct {
	codec *sz.Codec
}

func init() {
	register("sz", func(o *Options) (backend, error) {
		eb := o.Float("eb", 1e-3)
		c, err := sz.New(eb)
		if err != nil {
			return nil, fmt.Errorf("codec: sz: invalid value %g for key %q: %w", eb, "eb", err)
		}
		return &szBackend{codec: c}, nil
	})
}

func (b *szBackend) name() string   { return "sz" }
func (b *szBackend) ratio() float64 { return 0 } // data-dependent (VLE stage)

func (b *szBackend) canonical() string {
	return fmt.Sprintf("eb=%g", b.codec.ErrorBound)
}

func (b *szBackend) layout(s planeShape) (planeLayout, error) {
	l := planarLayout(modeFlat, 1, s.n, s.n)
	if s.rank >= 2 {
		l = planarLayout(modePlanar, s.h, s.w, s.n)
	}
	if l.w > vle.MaxFlatBlock {
		return planeLayout{}, fmt.Errorf("sz: row of %d values is wider than a vle block (%d)", l.w, vle.MaxFlatBlock)
	}
	return l, nil
}

func (b *szBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	return planeEncode(ctx, b, x)
}

func (b *szBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	return planeDecode(ctx, b, src, shape)
}

func (b *szBackend) encodePlane(l planeLayout, p int, plane []float32) ([]byte, error) {
	return b.codec.EncodePlane(plane, l.h, l.w)
}

// decodePlane decodes straight into the output plane; DecompressInto
// checks the plane stream's own recorded geometry against one h×w
// plane first.
func (b *szBackend) decodePlane(l planeLayout, p int, data []byte, plane []float32) error {
	return b.codec.DecompressInto(plane, data, l.h, l.w)
}

// roundTripPlane codes no vle stream and decodes none: sz's quantizer
// writes the decoder's reconstruction, and vle.FlatLen sizes the
// stream.
func (b *szBackend) roundTripPlane(l planeLayout, p int, dst, src []float32) (int, error) {
	return b.codec.RoundTripPlane(dst, src, l.h, l.w)
}
