package nn

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/tensor"
)

// Every registry codec is a RoundTripper as it is, with no adapter.
var _ RoundTripper = codec.Codec(nil)

// identityRT is a lossless RoundTripper fake with a fixed claimed ratio.
type identityRT struct{ calls int }

func (i *identityRT) RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	i.calls++
	return x.Clone(), x.Len(), nil // "compressed" to 1 byte per value
}

// dctRT is the registry's DCT+Chop codec at chop factor cf on 16×16
// flat planes.
func dctRT(t *testing.T, cf int) RoundTripper {
	t.Helper()
	rt, err := codec.New(fmt.Sprintf("dctc:cf=%d,planen=16", cf))
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestRegistryCodecsDriveCompressionTargets trains the stripes model
// with compressed activations and compressed gradients through registry
// codecs of two families. Neither wrapper may count more bytes than the
// raw tensors. dctc's payload size is a function of the shape alone, so
// there each wrapper's byte count must equal the codec's own figure for
// what it round-trips (the activation in its shape, each gradient as a
// rank-1 view), or the raw size where that is smaller; zfp's bit-plane
// coder ends a block early where the planes run out, so there the
// counts need only show compression.
func TestRegistryCodecsDriveCompressionTargets(t *testing.T) {
	for _, tc := range []struct {
		spec       string
		fixedBytes bool
	}{{"dctc:cf=6,planen=16", true}, {"zfp:rate=16", false}} {
		rt, err := codec.New(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(5)
		conv := NewCheckpointCompress(NewConv2d(rng, "c1", 1, 4, 3, 1, 1), rt)
		model := NewSequential(conv, NewReLU(), NewMaxPool2d(2), NewFlatten(), NewLinear(rng, "fc", 4*4*4, 2))
		opt := NewGradCompressOptimizer(NewAdam(0.01), rt)
		const steps = 80
		var loss float64
		for step := 0; step < steps; step++ {
			x, labels := stripeBatch(rng, 16)
			logits := model.Forward(x, true)
			var grad *tensor.Tensor
			loss, grad = SoftmaxCrossEntropy(logits, labels)
			model.ZeroGrad()
			model.Backward(grad)
			opt.Step(model.Params())
		}
		if loss > 0.3 {
			t.Fatalf("%s: training did not converge: loss %g", tc.spec, loss)
		}
		// A small parameter pads out a whole flat plane; it is sent
		// exact at its raw size, so neither wrapper costs more than raw.
		if conv.SavingsRatio() <= 1 || opt.SavingsRatio() < 1 {
			t.Fatalf("%s: activation savings %g, gradient savings %g", tc.spec, conv.SavingsRatio(), opt.SavingsRatio())
		}
		if !tc.fixedBytes {
			continue
		}
		// The bytes counted for a tensor of this shape: the framed
		// payload, or the raw bytes when that is no larger.
		framed := func(shape ...int) int {
			x := tensor.New(shape...)
			_, bytes, err := rt.RoundTrip(x)
			if err != nil {
				t.Fatal(err)
			}
			return min(bytes, x.SizeBytes())
		}
		if want := steps * framed(16, 1, 8, 8); conv.CompressedBytes != want {
			t.Fatalf("%s: activation bytes %d, want %d", tc.spec, conv.CompressedBytes, want)
		}
		want := 0
		for _, p := range model.Params() {
			want += steps * framed(p.Grad.Len())
		}
		if opt.CompressedBytes != want {
			t.Fatalf("%s: gradient bytes %d, want %d", tc.spec, opt.CompressedBytes, want)
		}
	}
}

// TestCheckpointCompressStoresCodecRoundTrip: the wrapper round-trips
// the activation in its own shape, so what it stores is, bit for bit,
// the codec's reconstruction of the activation: a [BD,C,16,16] batch
// takes dctc's planar layout, not a flat packing of its values.
func TestCheckpointCompressStoresCodecRoundTrip(t *testing.T) {
	rt, err := codec.New("dctc:cf=5")
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(4)
	c := NewCheckpointCompress(NewConv2d(rng, "c", 3, 2, 3, 1, 1), rt)
	x := rng.Uniform(-1, 1, 2, 3, 16, 16)
	c.Forward(x, true)
	want, bytes, err := rt.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if !c.stored.Equal(want) {
		t.Fatalf("stored activation differs from the codec's round trip by %g", c.stored.MaxAbsDiff(want))
	}
	if c.CompressedBytes != bytes {
		t.Fatalf("counted %d bytes, the codec's payload is %d", c.CompressedBytes, bytes)
	}
}

func TestCheckpointCompressExactWithLosslessRT(t *testing.T) {
	// With a lossless round-tripper the wrapper must produce exactly
	// the gradients of the unwrapped layer.
	rng := tensor.NewRNG(2)
	plain := NewConv2d(rng, "c", 2, 3, 3, 1, 1)
	wrapped := NewCheckpointCompress(cloneConv(plain), &identityRT{})
	x := rng.Uniform(-1, 1, 2, 2, 8, 8)
	g := rng.Uniform(-1, 1, 2, 3, 8, 8)

	plain.Forward(x, true)
	dxPlain := plain.Backward(g)

	wrapped.Forward(x, true)
	dxWrapped := wrapped.Backward(g)

	if d := dxPlain.MaxAbsDiff(dxWrapped); d > 1e-6 {
		t.Fatalf("lossless checkpoint changed input grad by %g", d)
	}
	for i := range plain.Params() {
		if d := plain.Params()[i].Grad.MaxAbsDiff(wrapped.Params()[i].Grad); d > 1e-6 {
			t.Fatalf("param %d grad deviates by %g", i, d)
		}
	}
}

// cloneConv duplicates a Conv2d with identical weights.
func cloneConv(c *Conv2d) *Conv2d {
	out := &Conv2d{InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: NewParam(c.W.Name, c.W.Value.Clone()),
		B: NewParam(c.B.Name, c.B.Value.Clone())}
	return out
}

func TestCheckpointCompressLossyGradientsApproximate(t *testing.T) {
	// With a lossy round-tripper the gradients deviate, but boundedly —
	// and the wrapper's savings accounting reflects the chop ratio.
	rng := tensor.NewRNG(3)
	plain := NewConv2d(rng, "c", 1, 2, 3, 1, 1)
	wrapped := NewCheckpointCompress(cloneConv(plain), dctRT(t, 6))
	x := rng.Uniform(0, 1, 2, 1, 16, 16)
	g := rng.Uniform(-0.1, 0.1, 2, 2, 16, 16)

	plain.Forward(x, true)
	plain.Backward(g)
	wrapped.Forward(x, true)
	wrapped.Backward(g)

	wNormPlain := plain.W.Grad.Norm2()
	diff := plain.W.Grad.Sub(wrapped.Params()[0].Grad).Norm2()
	if diff == 0 {
		t.Fatal("lossy checkpoint should perturb gradients")
	}
	// Spectrally flat (random) activations are the worst case for a
	// chop projection; the error stays below the gradient's own norm.
	if diff > 0.9*wNormPlain {
		t.Fatalf("gradient error %g too large vs norm %g", diff, wNormPlain)
	}
	// The [2,1,16,16] activation takes the planar layout: a 1-byte
	// head (the mode), the plane count, and per plane its length and
	// its 12×12 chop of float32s: 1 + 4 + 2·(4 + 576) = 1165 bytes.
	if wrapped.RawBytes != 2048 || wrapped.CompressedBytes != 1165 {
		t.Fatalf("activation bytes %d → %d, want 2048 → 1165", wrapped.RawBytes, wrapped.CompressedBytes)
	}
}

func TestCheckpointCompressOnlyStoresWhenTraining(t *testing.T) {
	rng := tensor.NewRNG(4)
	rt := &identityRT{}
	wrapped := NewCheckpointCompress(NewConv2d(rng, "c", 1, 1, 3, 1, 1), rt)
	x := rng.Uniform(0, 1, 1, 1, 8, 8)
	wrapped.Forward(x, false)
	if rt.calls != 0 {
		t.Fatal("eval-mode forward must not compress activations")
	}
	wrapped.Forward(x, true)
	if rt.calls != 1 {
		t.Fatal("train-mode forward must compress activations once")
	}
}

func TestCheckpointCompressTrainsEndToEnd(t *testing.T) {
	// A model whose every conv stores compressed activations must still
	// converge on the stripes task (the paper's premise that lossy
	// compression need not break training).
	rng := tensor.NewRNG(5)
	rt := dctRT(t, 6)
	model := NewSequential(
		NewCheckpointCompress(NewConv2d(rng, "c1", 1, 4, 3, 1, 1), rt),
		NewReLU(),
		NewMaxPool2d(2),
		NewFlatten(),
		NewLinear(rng, "fc", 4*4*4, 2),
	)
	opt := NewSGD(0.05, 0.9)
	var loss float64
	for step := 0; step < 80; step++ {
		x, labels := stripeBatch(rng, 16)
		logits := model.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = SoftmaxCrossEntropy(logits, labels)
		model.ZeroGrad()
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if loss > 0.3 {
		t.Fatalf("compressed-activation training did not converge: loss %g", loss)
	}
}

// stripeBatch is the two-class stripes task shared with nn_test.
func stripeBatch(rng *tensor.RNG, bd int) (*tensor.Tensor, []int) {
	x := tensor.New(bd, 1, 8, 8)
	labels := make([]int, bd)
	for b := 0; b < bd; b++ {
		label := rng.Intn(2)
		labels[b] = label
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				var v float32
				if (label == 0 && i%2 == 0) || (label == 1 && j%2 == 0) {
					v = 1
				}
				x.Set4(v+0.1*float32(rng.Norm()), b, 0, i, j)
			}
		}
	}
	return x, labels
}

func TestGradCompressOptimizer(t *testing.T) {
	rng := tensor.NewRNG(6)
	// 256 values fill one 16×16 flat plane exactly.
	p := NewParam("p", rng.Uniform(-1, 1, 256))
	p.Grad.CopyFrom(rng.Uniform(-1, 1, 256))
	gradBefore := p.Grad.Clone()

	inner := NewSGD(0.1, 0)
	opt := NewGradCompressOptimizer(inner, dctRT(t, 4))
	valBefore := p.Value.Clone()
	opt.Step([]*Param{p})

	// The step must have been taken along the *compressed* gradient.
	applied := valBefore.Sub(p.Value).Scale(10) // (v0−v1)/lr = effective grad
	if applied.Equal(gradBefore) {
		t.Fatal("gradient was not perturbed by compression")
	}
	// Direction preserved on average (chop keeps the low band).
	var dot float64
	for i := range applied.Data() {
		dot += float64(applied.Data()[i]) * float64(gradBefore.Data()[i])
	}
	cos := dot / (applied.Norm2() * gradBefore.Norm2())
	if cos < 0.2 {
		t.Fatalf("compressed gradient direction cosine %g too low", cos)
	}
	// The framed payload: a 9-byte head, the plane count, the plane's
	// length and its 8×8 chop of float32s, 9 + 4 + 4 + 256 = 273 bytes.
	if opt.RawBytes != 1024 || opt.CompressedBytes != 273 {
		t.Fatalf("gradient bytes %d → %d, want 1024 → 273", opt.RawBytes, opt.CompressedBytes)
	}
}

func TestGradCompressErrorFeedbackInvariant(t *testing.T) {
	// The error-feedback identity: transmitted + new residual ==
	// gradient + old residual, exactly (compression loses nothing
	// permanently).
	rng := tensor.NewRNG(8)
	p := NewParam("p", rng.Uniform(-1, 1, 50))
	opt := NewGradCompressOptimizer(NewSGD(0, 0), dctRT(t, 3)) // lr=0: params frozen
	var carried *tensor.Tensor
	for step := 0; step < 5; step++ {
		g := rng.Uniform(-1, 1, 50)
		p.Grad.CopyFrom(g)
		want := g.Clone()
		if carried != nil {
			want.AddInPlace(carried)
		}
		opt.Step([]*Param{p})
		// p.Grad now holds the transmitted (compressed) gradient.
		carried = want.Sub(p.Grad) // residual the optimizer must have kept
		// Re-derive: next step's effective input must include carried.
		// Verified implicitly by convergence test; here check the
		// residual is nonzero (chop drops something) yet bounded.
		if step > 0 && carried.Norm2() == 0 {
			t.Fatal("chop at CF=3 should leave a residual")
		}
		if carried.Norm2() > 10*want.Norm2() {
			t.Fatal("residual exploding")
		}
	}
}

func TestGradCompressOptimizerConvergesWithErrorFeedback(t *testing.T) {
	// Quadratic minimization converges under CF=4 gradient compression
	// thanks to error feedback (3LC-style robustness)... The 32 values
	// pack into one 8×8 plane, whose framed payload (81 bytes) is
	// smaller than their 128 raw bytes, so every step is sent lossy.
	rt, err := codec.New("dctc:cf=4,planen=8")
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	p := NewParam("p", rng.Uniform(-4, 4, 32))
	start := p.Value.Norm2()
	opt := NewGradCompressOptimizer(NewSGD(0.1, 0), rt)
	for i := 0; i < 1500; i++ {
		p.Grad.Zero()
		p.Grad.Axpy(2, p.Value)
		opt.Step([]*Param{p})
	}
	if got := p.Value.Norm2(); got > 0.1 || got > start/20 {
		t.Fatalf("did not converge under gradient compression: |p| = %g (start %g)", got, start)
	}
	if r := opt.SavingsRatio(); r <= 1 {
		t.Fatalf("gradient traffic saved %gx: the steps were not sent compressed", r)
	}

	// ...while the ablation without error feedback or rotation stalls:
	// the chop kernel's components are never transmitted.
	p2 := NewParam("p", tensor.NewRNG(7).Uniform(-4, 4, 32))
	naive := NewGradCompressOptimizer(NewSGD(0.1, 0), rt)
	naive.DisableErrorFeedback = true
	naive.DisableRotation = true
	for i := 0; i < 400; i++ {
		p2.Grad.Zero()
		p2.Grad.Axpy(2, p2.Value)
		naive.Step([]*Param{p2})
	}
	if p2.Value.Norm2() < 1 {
		t.Fatalf("naive compression unexpectedly converged (|p| = %g); the error-feedback ablation should stall", p2.Value.Norm2())
	}
}
