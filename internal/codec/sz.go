package codec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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

// szPlanes returns x's payload mode and plane geometry: its trailing
// 2-D planes, or one 1×len plane for a rank-1 tensor. Dim/Dims instead
// of Shape(): Shape clones its slice, and the fused path must stay
// allocation-free.
func szPlanes(x *tensor.Tensor) (mode byte, h, w int) {
	if x.Dims() >= 2 {
		return szModePlanar, x.Dim(-2), x.Dim(-1)
	}
	return szModeFlat, 1, x.Len()
}

func (b *szBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	if x.Len() == 0 {
		return nil, fmt.Errorf("sz: empty tensor")
	}
	mode, h, w := szPlanes(x)
	framed, err := compressPlanes(ctx, x.Data(), h, w, func(p int, plane []float32) ([]byte, error) {
		return b.codec.EncodePlane(plane, h, w)
	})
	if err != nil {
		return nil, err
	}
	return append([]byte{mode}, framed...), nil
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
	// Each plane decodes straight into the output — no staging tensor.
	// DecompressInto checks the plane stream's own recorded geometry
	// against one h×w plane first.
	err = frame.decodePlanes(ctx, out.Data(), h, w, func(p int, data []byte, plane []float32) error {
		return b.codec.DecompressInto(plane, data, h, w)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// szRoundTrip is fastRoundTripInto's job on the plane pool: plane p of
// x round-trips into plane p of dst, and its stream length adds to
// bytes. Pooled with run, its runPlane method value bound once, so a
// round trip allocates nothing.
type szRoundTrip struct {
	codec  *sz.Codec
	dst, x []float32
	h, w   int
	bytes  atomic.Int64
	run    func(p int) error
}

var szRoundTrips = sync.Pool{New: func() any {
	j := new(szRoundTrip)
	j.run = j.runPlane
	return j
}}

func (j *szRoundTrip) runPlane(p int) error {
	n := j.h * j.w
	size, err := j.codec.RoundTripPlane(j.dst[p*n:(p+1)*n], j.x[p*n:(p+1)*n], j.h, j.w)
	if err != nil {
		return fmt.Errorf("codec: plane %d: %w", p, err)
	}
	j.bytes.Add(int64(size))
	return nil
}

// fastRoundTripInto round-trips every plane, planar and flat layouts
// alike, through sz's RoundTripPlane on the plane pool: no vle stream
// is coded or decoded, and no payload is framed. The reported size
// matches the serialize path's payload: the mode byte, the plane frame
// and each plane's stream.
func (b *szBackend) fastRoundTripInto(dst, x *tensor.Tensor) (int, error) {
	if x.Len() == 0 {
		return 0, errNoFastPath // encode reports the error
	}
	_, h, w := szPlanes(x)
	planes := x.Len() / (h * w)
	j := szRoundTrips.Get().(*szRoundTrip)
	j.codec, j.dst, j.x, j.h, j.w = b.codec, dst.Data(), x.Data(), h, w
	j.bytes.Store(0)
	err := forEachPlane(context.Background(), planes, j.run)
	total := 1 + 4 + 4*planes + int(j.bytes.Load())
	j.codec, j.dst, j.x = nil, nil, nil
	szRoundTrips.Put(j)
	if err != nil {
		return 0, err
	}
	return total, nil
}
