package nn

import (
	"repro/internal/tensor"
)

// RoundTripper is the lossy compress→decompress interface the
// compression-target wrappers consume. It is exactly codec.Codec's
// RoundTrip, so every registry codec drives them as it is; tests inject
// fakes.
type RoundTripper interface {
	// RoundTrip returns the lossy reconstruction of x, in x's shape, and
	// the compressed payload size in bytes.
	RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error)
}

// CheckpointCompress implements the paper's future-work *activation*
// compression target (§6, Fig. 1): during training, the input
// activation a layer would cache for its backward pass is stored
// compressed instead. At backward time the activation is decompressed
// and the wrapped layer's forward is re-run to rebuild its caches
// before backpropagating — the same recompute-from-lossy-activations
// scheme as COMET/ActNN, expressed over any Layer.
//
// The forward *output* is exact; only the gradient is computed from the
// lossy activation, which is precisely the error mode activation
// compression introduces ("data loss can lead to incorrectly calculated
// gradients", §3.1). The activation round-trips in its own shape, so a
// [BD,C,n,n] image activation takes a codec's planar layout, its blocks
// inside image rows. An activation whose framed payload is no smaller
// than its raw bytes (a tiny tensor padded out to a whole plane) is
// stored exact and counted at its raw size, so the wrapper never costs
// more than storing the activation uncompressed.
type CheckpointCompress struct {
	Inner Layer
	RT    RoundTripper

	// Stats accumulated across forward passes (training mode only).
	RawBytes        int
	CompressedBytes int

	stored   *tensor.Tensor
	trained  bool
	rtFailed error
}

// NewCheckpointCompress wraps inner with compressed activation storage.
func NewCheckpointCompress(inner Layer, rt RoundTripper) *CheckpointCompress {
	return &CheckpointCompress{Inner: inner, RT: rt}
}

// Forward runs the wrapped layer and stores its input compressed.
func (c *CheckpointCompress) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := c.Inner.Forward(x, train)
	c.trained = train
	if train {
		rec, bytes, err := c.RT.RoundTrip(x)
		if err != nil {
			c.rtFailed = err
			return out
		}
		if bytes >= x.SizeBytes() {
			copy(rec.Data(), x.Data())
			bytes = x.SizeBytes()
		}
		c.stored = rec
		c.RawBytes += x.SizeBytes()
		c.CompressedBytes += bytes
	}
	return out
}

// Backward decompresses the stored activation, re-runs the inner
// forward to rebuild its caches from the lossy input, then
// backpropagates through it.
func (c *CheckpointCompress) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.rtFailed != nil {
		panic("nn: CheckpointCompress forward round-trip failed: " + c.rtFailed.Error())
	}
	if c.trained && c.stored != nil {
		c.Inner.Forward(c.stored, true)
	}
	return c.Inner.Backward(grad)
}

// Params returns the wrapped layer's parameters.
func (c *CheckpointCompress) Params() []*Param { return c.Inner.Params() }

// SavingsRatio returns raw/compressed activation bytes so far.
func (c *CheckpointCompress) SavingsRatio() float64 {
	if c.CompressedBytes == 0 {
		return 0
	}
	return float64(c.RawBytes) / float64(c.CompressedBytes)
}

// GradCompressOptimizer implements the *gradient* compression target
// (§6, and the distributed-training motivation of §2.2): every
// parameter gradient is round-tripped through the lossy compressor
// before the wrapped optimizer consumes it, simulating a compressed
// all-reduce. Stats record the traffic saved. It round-trips a rank-1
// view of the values (rotated, below), and like CheckpointCompress
// sends a gradient whose framed payload is no smaller than its raw
// bytes (a bias vector padded out to a whole plane) exact, counted at
// its raw size.
//
// Because DCT+Chop is a projection, naively compressing each step's
// gradient would permanently lose the components in the chop's kernel
// and training would stall. Like the gradient-compression systems the
// paper cites (3LC; error-feedback SGD generally), the wrapper
// therefore keeps a per-parameter residual: each step compresses
// gradient+residual and carries the compression error into the next
// step, so every component is eventually transmitted.
type GradCompressOptimizer struct {
	Inner Optimizer
	RT    RoundTripper
	// DisableErrorFeedback turns the residual accumulation off (for
	// ablation; expect stalls on spectrally flat gradients).
	DisableErrorFeedback bool
	// DisableRotation turns off the per-step packing rotation (for
	// ablation). Error feedback alone cannot drain a *fixed* chop
	// kernel — a projection never transmits those components — so each
	// step packs the gradient at a different circular offset, moving
	// the kernel around; combined with error feedback every component
	// is transmitted within a few steps.
	DisableRotation bool

	RawBytes        int
	CompressedBytes int
	// Err holds the first round-trip failure; Step panics on it rather
	// than silently training on unmodified gradients.
	Err error

	residual map[*Param]*tensor.Tensor
	step     int
}

// residualDecay scales the carried residual each step (damped error
// feedback). Undamped feedback (1.0) through a *non-contractive*
// compressor like chop lets stale high-frequency residual resonate with
// the optimizer and diverge; 0.5 bounds the residual at ~2 steps of
// dropped gradient while still re-transmitting most of what the chop
// removed.
const residualDecay = 0.5

// NewGradCompressOptimizer wraps inner with gradient compression, error
// feedback and packing rotation on.
func NewGradCompressOptimizer(inner Optimizer, rt RoundTripper) *GradCompressOptimizer {
	return &GradCompressOptimizer{Inner: inner, RT: rt, residual: map[*Param]*tensor.Tensor{}}
}

// Step compresses every gradient in place (with error feedback), then
// delegates to the wrapped optimizer.
func (g *GradCompressOptimizer) Step(params []*Param) {
	if g.Err != nil {
		panic("nn: GradCompressOptimizer: " + g.Err.Error())
	}
	g.step++
	for _, p := range params {
		if !g.DisableErrorFeedback {
			res, ok := g.residual[p]
			if !ok {
				res = tensor.New(p.Grad.Shape()...)
				g.residual[p] = res
			}
			p.Grad.AddInPlace(res)
		}
		payload := p.Grad.Data()
		offset := 0
		if !g.DisableRotation && len(payload) > 1 {
			// Deterministic stride coprime-ish with typical lengths.
			offset = (g.step * 9973) % len(payload)
			payload = rotated(payload, offset)
		}
		rec, bytes, err := g.RT.RoundTrip(tensor.FromSlice(payload, len(payload)))
		if err != nil {
			g.Err = err
			panic("nn: GradCompressOptimizer: " + err.Error())
		}
		vals := rec.Data()
		if raw := p.Grad.SizeBytes(); bytes >= raw {
			copy(vals, payload)
			bytes = raw
		}
		if offset != 0 {
			vals = rotated(vals, len(vals)-offset)
		}
		if !g.DisableErrorFeedback {
			rd, gd := g.residual[p].Data(), p.Grad.Data()
			for i := range rd {
				rd[i] = residualDecay * (gd[i] - vals[i]) // carry what the chop dropped
			}
		}
		copy(p.Grad.Data(), vals)
		g.RawBytes += p.Grad.SizeBytes()
		g.CompressedBytes += bytes
	}
	g.Inner.Step(params)
}

// rotated returns values circularly shifted left by k.
func rotated(values []float32, k int) []float32 {
	n := len(values)
	out := make([]float32, n)
	copy(out, values[k:])
	copy(out[n-k:], values[:k])
	return out
}

// SavingsRatio returns raw/compressed gradient bytes so far.
func (g *GradCompressOptimizer) SavingsRatio() float64 {
	if g.CompressedBytes == 0 {
		return 0
	}
	return float64(g.RawBytes) / float64(g.CompressedBytes)
}
