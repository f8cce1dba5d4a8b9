package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over k classes: loss = ln(k).
	logits := tensor.New(2, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform loss %g, want ln4=%g", loss, math.Log(4))
	}
	// Gradient rows sum to zero (softmax minus one-hot).
	for b := 0; b < 2; b++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(grad.At2(b, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("grad row %d sums to %g", b, s)
		}
	}
	// True-label entries are negative, others positive.
	if grad.At2(0, 0) >= 0 || grad.At2(0, 1) <= 0 {
		t.Fatal("cross-entropy gradient signs wrong")
	}
}

func TestSoftmaxCrossEntropyNumericGrad(t *testing.T) {
	rng := tensor.NewRNG(1)
	logits := rng.Uniform(-2, 2, 3, 5)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	eps := 1e-3
	for _, ix := range []int{0, 4, 7, 14} {
		orig := logits.Data()[ix]
		logits.Data()[ix] = orig + float32(eps)
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[ix] = orig - float32(eps)
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data()[ix] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data()[ix])) > 1e-3 {
			t.Fatalf("index %d: numeric %g vs analytic %g", ix, numeric, grad.Data()[ix])
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Huge logits must not overflow.
	logits := tensor.FromSlice([]float32{1000, 999, -1000, 0}, 1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g", loss)
	}
	for _, g := range grad.Data() {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestMSELossAndGrad(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2}, 2)
	q := tensor.FromSlice([]float32{0, 4}, 2)
	loss, grad := MSELoss(p, q)
	if math.Abs(loss-(1+4)/2.0) > 1e-6 {
		t.Fatalf("MSE = %g", loss)
	}
	// d/dp mean((p-q)²) = 2(p-q)/n
	if math.Abs(float64(grad.Data()[0])-1) > 1e-6 || math.Abs(float64(grad.Data()[1])+2) > 1e-6 {
		t.Fatalf("MSE grad %v", grad.Data())
	}
}

func TestBCEWithLogitsMatchesDefinition(t *testing.T) {
	rng := tensor.NewRNG(2)
	logits := rng.Uniform(-3, 3, 10)
	target := tensor.New(10)
	for i := range target.Data() {
		if rng.Float64() < 0.5 {
			target.Data()[i] = 1
		}
	}
	loss, grad := BCEWithLogits(logits, target)
	// Reference: −[t·ln σ(x) + (1−t)·ln(1−σ(x))]
	var want float64
	for i, x := range logits.Data() {
		s := 1 / (1 + math.Exp(-float64(x)))
		tt := float64(target.Data()[i])
		want += -(tt*math.Log(s) + (1-tt)*math.Log(1-s))
	}
	want /= 10
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("BCE = %g, want %g", loss, want)
	}
	// Numeric gradient.
	eps := 1e-3
	orig := logits.Data()[3]
	logits.Data()[3] = orig + float32(eps)
	lp, _ := BCEWithLogits(logits, target)
	logits.Data()[3] = orig - float32(eps)
	lm, _ := BCEWithLogits(logits, target)
	logits.Data()[3] = orig
	if math.Abs((lp-lm)/(2*eps)-float64(grad.Data()[3])) > 1e-3 {
		t.Fatal("BCE gradient mismatch")
	}
}

func TestSGDQuadratic(t *testing.T) {
	// Minimize ||p||² with and without momentum.
	for _, mom := range []float64{0, 0.9} {
		p := NewParam("p", tensor.FromSlice([]float32{4, -3}, 2))
		opt := NewSGD(0.1, mom)
		for i := 0; i < 300; i++ {
			p.Grad.Zero()
			p.Grad.Axpy(2, p.Value) // ∇||p||² = 2p
			opt.Step([]*Param{p})
		}
		if p.Value.Norm2() > 1e-2 {
			t.Fatalf("momentum=%g: SGD did not converge, |p| = %g", mom, p.Value.Norm2())
		}
	}
}

func TestAdamQuadratic(t *testing.T) {
	p := NewParam("p", tensor.FromSlice([]float32{5, -7, 0.5}, 3))
	opt := NewAdam(0.1)
	for i := 0; i < 400; i++ {
		p.Grad.Zero()
		p.Grad.Axpy(2, p.Value)
		opt.Step([]*Param{p})
	}
	if p.Value.Norm2() > 1e-2 {
		t.Fatalf("Adam did not converge, |p| = %g", p.Value.Norm2())
	}
}

func TestBatchNormNormalizesTraining(t *testing.T) {
	rng := tensor.NewRNG(3)
	bn := NewBatchNorm2d("bn", 2)
	x := rng.Normal(5, 3, 8, 2, 4, 4)
	y := bn.Forward(x, true)
	// Per-channel output mean ≈ 0, variance ≈ 1 (γ=1, β=0 at init).
	for c := 0; c < 2; c++ {
		var sum, sq float64
		n := 0
		forEachChannel(8, 2, 4, 4, c, func(ix int) {
			v := float64(y.Data()[ix])
			sum += v
			sq += v * v
			n++
		})
		mean := sum / float64(n)
		variance := sq/float64(n) - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean %g var %g", c, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(4)
	bn := NewBatchNorm2d("bn", 1)
	for i := 0; i < 50; i++ {
		bn.Forward(rng.Normal(2, 1, 4, 1, 3, 3), true)
	}
	// In eval mode a constant input shifted by the learned running mean
	// must map near (x − µ)/σ.
	x := tensor.Full(2, 1, 1, 3, 3)
	y := bn.Forward(x, false)
	want := (2 - bn.RunningMean[0]) / math.Sqrt(bn.RunningVar[0]+bn.Eps)
	if math.Abs(float64(y.Data()[0])-want) > 1e-4 {
		t.Fatalf("eval output %g, want %g", y.Data()[0], want)
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	}, 1, 1, 4, 4)
	y := NewMaxPool2d(2).Forward(x, true)
	want := []float32{4, 8, -1, 9}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("MaxPool output %v, want %v", y.Data(), want)
		}
	}
}

func TestUpsampleForwardValues(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := NewUpsample2x().Forward(x, true)
	want := []float32{1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Fatalf("Upsample output %v", y.Data())
		}
	}
}

func TestConvOutSize(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewConv2d(rng, "c", 1, 1, 3, 2, 1)
	if c.OutSize(32) != 16 {
		t.Fatalf("OutSize(32) = %d, want 16", c.OutSize(32))
	}
	c2 := NewConv2d(rng, "c2", 1, 1, 3, 1, 1)
	if c2.OutSize(32) != 32 {
		t.Fatalf("same-pad OutSize(32) = %d", c2.OutSize(32))
	}
}

func TestSequentialTrainsXORLikeTask(t *testing.T) {
	// End-to-end sanity: a small conv net must learn to separate two
	// pattern classes (horizontal vs vertical stripes).
	rng := tensor.NewRNG(6)
	model := NewSequential(
		NewConv2d(rng, "c1", 1, 4, 3, 1, 1),
		NewReLU(),
		NewMaxPool2d(2),
		NewFlatten(),
		NewLinear(rng, "fc", 4*4*4, 2),
	)
	opt := NewSGD(0.05, 0.9)
	makeBatch := func(bd int) (*tensor.Tensor, []int) {
		x := tensor.New(bd, 1, 8, 8)
		labels := make([]int, bd)
		for b := 0; b < bd; b++ {
			label := rng.Intn(2)
			labels[b] = label
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					var v float32
					if label == 0 && i%2 == 0 {
						v = 1
					}
					if label == 1 && j%2 == 0 {
						v = 1
					}
					v += 0.1 * float32(rng.Norm())
					x.Set4(v, b, 0, i, j)
				}
			}
		}
		return x, labels
	}
	var loss float64
	for step := 0; step < 60; step++ {
		x, labels := makeBatch(16)
		logits := model.Forward(x, true)
		var grad *tensor.Tensor
		loss, grad = SoftmaxCrossEntropy(logits, labels)
		model.ZeroGrad()
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if loss > 0.2 {
		t.Fatalf("training did not converge: final loss %g", loss)
	}
	// Check accuracy on fresh data.
	x, labels := makeBatch(32)
	logits := model.Forward(x, false)
	correct := 0
	for b := 0; b < 32; b++ {
		if logits.Index(b).Argmax() == labels[b] {
			correct++
		}
	}
	if correct < 28 {
		t.Fatalf("accuracy %d/32 too low", correct)
	}
}

func TestParamCountAndZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(7)
	model := NewSequential(
		NewConv2d(rng, "c", 1, 2, 3, 1, 1), // 2*9 + 2 = 20
		NewLinear(rng, "fc", 4, 3),         // 12 + 3 = 15
	)
	n := 0
	for _, p := range model.Params() {
		n += p.Value.Len()
	}
	if n != 35 {
		t.Fatalf("%d trainable scalars, want 35", n)
	}
	for _, p := range model.Params() {
		p.Grad.Fill(3)
	}
	model.ZeroGrad()
	for _, p := range model.Params() {
		if p.Grad.MaxAbs() != 0 {
			t.Fatal("ZeroGrad left nonzero gradients")
		}
	}
}
