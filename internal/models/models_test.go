package models

import (
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("Table3 rows = %d", len(rows))
	}
	if rows[0].Test != "classify" || rows[0].BatchSize != 100 || rows[0].LearningRate != 0.001 {
		t.Fatalf("classify row %+v", rows[0])
	}
	if rows[3].Network != "UNet" || rows[3].BatchSize != 4 {
		t.Fatalf("slstr_cloud row %+v", rows[3])
	}
}

func TestResNetSShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewResNetS(rng, 10)
	x := rng.Uniform(0, 1, 4, 3, 32, 32)
	y := m.Forward(x, true)
	if y.Dim(0) != 4 || y.Dim(1) != 10 {
		t.Fatalf("ResNetS output %v", y.Shape())
	}
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	if n < 1000 {
		t.Fatalf("ResNetS too small: %d params", n)
	}
}

func TestResNetSBackwardShapes(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewResNetS(rng, 10)
	x := rng.Uniform(0, 1, 2, 3, 32, 32)
	logits := m.Forward(x, true)
	_, grad := nn.SoftmaxCrossEntropy(logits, []int{1, 7})
	m.ZeroGrad()
	dx := m.Backward(grad)
	if !dx.SameShape(x) {
		t.Fatalf("input grad shape %v", dx.Shape())
	}
	nonzero := 0
	for _, p := range m.Params() {
		if p.Grad.MaxAbs() > 0 {
			nonzero++
		}
	}
	if nonzero < len(m.Params())/2 {
		t.Fatalf("only %d/%d params received gradient", nonzero, len(m.Params()))
	}
}

func TestEncDecPreservesShape(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewEncDec(rng)
	x := rng.Uniform(0, 1, 2, 1, 32, 32)
	y := m.Forward(x, true)
	if !y.SameShape(x) {
		t.Fatalf("EncDec output %v, want %v", y.Shape(), x.Shape())
	}
}

func TestAutoencoderPreservesShape(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewAutoencoder(rng)
	x := rng.Uniform(0, 1, 2, 1, 32, 32)
	y := m.Forward(x, true)
	if !y.SameShape(x) {
		t.Fatalf("Autoencoder output %v", y.Shape())
	}
	// Sigmoid output in (0,1).
	if y.Min() <= 0 || y.Max() >= 1 {
		t.Fatalf("Autoencoder output range [%g,%g]", y.Min(), y.Max())
	}
}

func TestUNetShapes(t *testing.T) {
	rng := tensor.NewRNG(5)
	u := NewUNet(rng, 9, 4)
	x := rng.Uniform(0, 1, 2, 9, 16, 16)
	y := u.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 1 || y.Dim(2) != 16 || y.Dim(3) != 16 {
		t.Fatalf("UNet output %v", y.Shape())
	}
}

func TestUNetGradCheck(t *testing.T) {
	// Full finite-difference check through the skip connections: the
	// concat/split bookkeeping is the riskiest part of the UNet.
	rng := tensor.NewRNG(6)
	u := NewUNet(rng, 2, 2)
	x := rng.Uniform(0.1, 1, 1, 2, 8, 8)
	target := rng.Uniform(0, 1, 1, 1, 8, 8)
	target = target.Apply(func(v float32) float32 {
		if v > 0.5 {
			return 1
		}
		return 0
	})
	forward := func() float64 {
		loss, _ := nn.MSELoss(u.Forward(x, true), target)
		return loss
	}
	loss0 := forward()
	_ = loss0
	_, grad := nn.MSELoss(u.Forward(x, true), target)
	for _, p := range u.Params() {
		p.Grad.Zero()
	}
	u.Backward(grad)
	eps := 1e-2
	checked := 0
	for _, p := range u.Params() {
		for _, ix := range []int{0, p.Value.Len() / 2} {
			orig := p.Value.Data()[ix]
			p.Value.Data()[ix] = orig + float32(eps)
			lp := forward()
			p.Value.Data()[ix] = orig - float32(eps)
			lm := forward()
			p.Value.Data()[ix] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data()[ix])
			// ReLU kinks make some positions noisy; require agreement
			// when the numeric gradient is meaningfully large.
			if math.Abs(numeric) > 1e-3 {
				if math.Abs(numeric-analytic) > 0.35*math.Abs(numeric)+1e-4 {
					t.Errorf("%s[%d]: analytic %g vs numeric %g", p.Name, ix, analytic, numeric)
				}
				checked++
			}
		}
	}
	if checked < 4 {
		t.Fatalf("only %d gradient positions were informative", checked)
	}
}

func TestCatSplitChannelsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(7)
	a := rng.Uniform(-1, 1, 2, 3, 4, 4)
	b := rng.Uniform(-1, 1, 2, 5, 4, 4)
	cat := catChannels(a, b)
	if cat.Dim(1) != 8 {
		t.Fatalf("cat channels %v", cat.Shape())
	}
	a2, b2 := splitChannels(cat, 3)
	if !a2.Equal(a) || !b2.Equal(b) {
		t.Fatal("splitChannels(catChannels) is not identity")
	}
}

func TestUNetLearnsCloudMask(t *testing.T) {
	// End-to-end: a tiny UNet must beat chance on synthetic cloud
	// segmentation within a few steps.
	rng := tensor.NewRNG(8)
	u := NewUNet(rng, 3, 4)
	gen := datagen.NewCloudSeg(1, 16, 3)
	opt := nn.NewAdam(0.01)
	var loss float64
	for step := 0; step < 30; step++ {
		scenes, masks := gen.Batch(8)
		logits := u.Forward(scenes, true)
		var grad *tensor.Tensor
		loss, grad = nn.BCEWithLogits(logits, masks)
		for _, p := range u.Params() {
			p.Grad.Zero()
		}
		u.Backward(grad)
		opt.Step(u.Params())
	}
	if loss > 0.45 {
		t.Fatalf("UNet did not learn: BCE %g (chance ≈ 0.69)", loss)
	}
}
