package codec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/tensor"
	"repro/internal/vecops"
)

// losslessBackend is the exact (bit-preserving) codec family for
// tensors that cannot tolerate loss — checkpoints, optimizer state,
// weights shipped for resumption. Spec: "lossless:bg=4" with byte
// groups bg ∈ {1, 2, 4}.
//
// It performs no quantization at all: the payload is the float32
// stream's little-endian bytes, transposed into bg byte-group lanes
// (bg=4: lane k holds byte k of every value) by vecops.SplitLanes and
// back by vecops.JoinLanes, which own the layout. Grouping same-significance
// bytes — in the spirit of ZipNN's exponent/mantissa split — turns the
// highly skewed sign+exponent byte and the near-uniform mantissa bytes
// into separate runs, which is exactly the layout the "+huf" entropy
// stage compresses well, coding each lane as its own block sequence;
// "lossless:bg=4+huf" is the intended full spec. Alone, the family is a
// ratio-1 identity with exact round-trip.
type losslessBackend struct {
	bg int
}

func init() {
	register("lossless", func(o *Options) (backend, error) {
		bg := o.Int("bg", 4)
		if bg != 1 && bg != 2 && bg != 4 {
			return nil, fmt.Errorf("codec: lossless: invalid value %d for key %q (want 1, 2, or 4)", bg, "bg")
		}
		return &losslessBackend{bg: bg}, nil
	})
}

func (b *losslessBackend) name() string   { return "lossless" }
func (b *losslessBackend) ratio() float64 { return 1 }

func (b *losslessBackend) canonical() string {
	return fmt.Sprintf("bg=%d", b.bg)
}

// errLosslessEmpty is every path's refusal of an empty tensor.
var errLosslessEmpty = errors.New("lossless: empty tensor")

func (b *losslessBackend) encode(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	return b.group(ctx, nil, x)
}

// roundTrip is the family's fused round trip. A bit-exact family's
// reconstruction is its input, so it copies x into dst (NaN payloads
// included) and sizes the payload without coding it: 4 bytes per
// element bare, and through "+huf" the length hufEncode would append,
// measured on the byte-group lanes in a pooled buffer.
func (b *losslessBackend) roundTrip(dst, x *tensor.Tensor, staged bool) (int, error) {
	if x.Len() == 0 {
		return 0, errLosslessEmpty
	}
	n := 4 * x.Len()
	if staged {
		bp := groupBufs.Get().(*[]byte)
		*bp = b.lanes(*bp, x)
		n = hufLen(b.bg, *bp)
		groupBufs.Put(bp)
	}
	copy(dst.Data(), x.Data())
	return n, nil
}

// group is lanes behind the encode path's checks: an empty tensor and
// a canceled context fail.
func (b *losslessBackend) group(ctx context.Context, buf []byte, x *tensor.Tensor) ([]byte, error) {
	if x.Len() == 0 {
		return nil, errLosslessEmpty
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.lanes(buf, x), nil
}

// lanes writes x's byte-group transpose into buf, grown to 4 bytes per
// element when it is short, and returns it. A staged encode and the
// staged fused round trip pass a pooled buffer: the lanes are read
// only by the entropy step.
func (b *losslessBackend) lanes(buf []byte, x *tensor.Tensor) []byte {
	elems := x.Len()
	if cap(buf) < 4*elems {
		buf = make([]byte, 4*elems)
	}
	out := buf[:4*elems]
	vecops.SplitLanes(out, x.Data(), b.bg)
	return out
}

// decode takes the whole payload in one view: zero-copy from a
// resident payload, and from a record once every chunk has arrived,
// so a forged length fails on the missing bytes before the output is
// allocated.
func (b *losslessBackend) decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	if src.len() != 4*elems {
		return nil, fmt.Errorf("lossless: payload is %d bytes, shape %v needs exactly %d", src.len(), shape, 4*elems)
	}
	payload, err := src.next(4 * elems)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape...)
	vecops.JoinLanes(out.Data(), payload, b.bg)
	return out, nil
}
