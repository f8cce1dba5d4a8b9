package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestStepDecay(t *testing.T) {
	s := StepDecay{Base: 0.1, Gamma: 0.5, StepSize: 3}
	want := []float64{0.1, 0.1, 0.1, 0.05, 0.05, 0.05, 0.025}
	for e, w := range want {
		if got := s.LR(e); math.Abs(got-w) > 1e-12 {
			t.Fatalf("epoch %d: LR %g, want %g", e, got, w)
		}
	}
	if (StepDecay{Base: 0.1}).LR(5) != 0.1 {
		t.Fatal("zero StepSize must hold the base rate")
	}
}

func TestCosineDecay(t *testing.T) {
	c := CosineDecay{Base: 1, Floor: 0.1, Span: 10}
	if got := c.LR(0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("epoch 0: %g", got)
	}
	if got := c.LR(5); math.Abs(got-0.55) > 1e-9 { // midpoint of [0.1,1]
		t.Fatalf("midpoint: %g", got)
	}
	if c.LR(10) != 0.1 || c.LR(50) != 0.1 {
		t.Fatal("past the span the floor must hold")
	}
	// Monotone non-increasing.
	prev := math.MaxFloat64
	for e := 0; e <= 10; e++ {
		if lr := c.LR(e); lr > prev+1e-12 {
			t.Fatalf("cosine LR rose at epoch %d", e)
		} else {
			prev = lr
		}
	}
}

func TestSetLR(t *testing.T) {
	sgd := NewSGD(0.1, 0.9)
	if err := SetLR(sgd, 0.01); err != nil || sgd.LR != 0.01 {
		t.Fatalf("SetLR on SGD: %v, LR=%g", err, sgd.LR)
	}
	adam := NewAdam(0.1)
	if err := SetLR(adam, 0.02); err != nil || adam.LR != 0.02 {
		t.Fatalf("SetLR on Adam: %v", err)
	}
	wrapped := NewGradCompressOptimizer(NewSGD(0.1, 0), &identityRT{})
	if err := SetLR(wrapped, 0.03); err != nil {
		t.Fatal(err)
	}
	if wrapped.Inner.(*SGD).LR != 0.03 {
		t.Fatal("SetLR must reach through GradCompressOptimizer")
	}
	if err := SetLR(nil, 0.1); err == nil {
		t.Fatal("unsupported optimizer must error")
	}
}

func TestScheduledTrainingImproves(t *testing.T) {
	// Cosine-annealed SGD on the stripes task: end-to-end use of the
	// scheduler API.
	rng := tensor.NewRNG(2)
	model := NewSequential(
		NewConv2d(rng, "c1", 1, 4, 3, 1, 1),
		NewReLU(),
		NewMaxPool2d(2),
		NewFlatten(),
		NewLinear(rng, "fc", 4*4*4, 2),
	)
	opt := NewSGD(0.1, 0.9)
	sched := CosineDecay{Base: 0.1, Floor: 0.005, Span: 8}
	var loss float64
	for epoch := 0; epoch < 8; epoch++ {
		if err := SetLR(opt, sched.LR(epoch)); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 8; step++ {
			x, labels := stripeBatch(rng, 16)
			logits := model.Forward(x, true)
			var grad *tensor.Tensor
			loss, grad = SoftmaxCrossEntropy(logits, labels)
			model.ZeroGrad()
			model.Backward(grad)
			opt.Step(model.Params())
		}
	}
	if loss > 0.3 {
		t.Fatalf("scheduled training did not converge: %g", loss)
	}
}
