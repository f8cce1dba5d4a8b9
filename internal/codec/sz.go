package codec

import (
	"context"
	"fmt"

	"repro/internal/sz"
	"repro/internal/tensor"
)

// szBackend adapts the error-bounded SZ-style baseline. Spec:
// "sz:eb=1e-3" (absolute pointwise error bound).
//
// Rank ≥ 2 tensors take the planar path — one pipeline job per trailing
// 2-D plane, any plane size. Rank-1 tensors are viewed as a single
// 1×len plane.
type szBackend struct {
	codec *sz.Codec
}

const (
	szModePlanar = 0
	szModeFlat   = 1
)

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

func (b *szBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	if x.Len() == 0 {
		return nil, fmt.Errorf("sz: empty tensor")
	}
	mode := byte(szModePlanar)
	h, w := 0, 0
	if x.Dims() >= 2 {
		h, w = x.Dim(-2), x.Dim(-1)
	} else {
		mode, h, w = szModeFlat, 1, x.Len()
		x = x.Reshape(1, w)
	}
	framed, err := compressPlanes(ctx, x, h, w, func(p int, plane *tensor.Tensor) ([]byte, error) {
		return b.codec.Compress(plane)
	})
	if err != nil {
		return nil, err
	}
	return append([]byte{mode}, framed...), nil
}

// planeDec returns the per-plane decode closure: it re-validates the
// plane stream's recorded geometry (the sz stream is itself
// self-describing) before decompressing into the output plane.
func (b *szBackend) planeDec(h, w int) func(p int, data []byte, plane *tensor.Tensor) error {
	return func(p int, data []byte, plane *tensor.Tensor) error {
		planes, sh, sw, err := sz.StreamDims(data)
		if err != nil {
			return err
		}
		if planes != 1 || sh != h || sw != w {
			return fmt.Errorf("sz: stream is %d×%dx%d, want 1×%dx%d", planes, sh, sw, h, w)
		}
		// Decode straight into the output plane — no staging tensor.
		return b.codec.DecompressInto(plane.Data(), data, h, w)
	}
}

func (b *szBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	head, err := src.next(1)
	if err != nil {
		return nil, fmt.Errorf("sz: reading payload mode: %w", err)
	}
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	var h, w int
	switch mode := head[0]; {
	case mode == szModePlanar && len(shape) >= 2:
		h, w = shape[len(shape)-2], shape[len(shape)-1]
	case mode == szModeFlat && len(shape) == 1:
		h, w = 1, elems
	default:
		return nil, fmt.Errorf("sz: payload mode %d does not match shape %v", mode, shape)
	}
	frame, err := readPlaneFrame(src, elems/(h*w), 0, false)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape...)
	if err := frame.decodePlanes(ctx, out.Data(), h, w, b.planeDec(h, w)); err != nil {
		return nil, err
	}
	return out, nil
}
