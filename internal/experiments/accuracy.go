// Package experiments implements the paper's evaluation harness: one
// function per table and figure. Accuracy experiments (Figs. 7, 8, 9,
// 16) train the four Table 3 benchmarks with each batch compressed and
// then decompressed before it reaches the model, exactly as §4.1
// describes; throughput experiments (Figs. 10–15, 17) sweep the
// compiled compressor graphs across the simulated accelerators.
package experiments

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Transform is applied to every training batch before the model sees it
// (compress→decompress round trip, or identity for the baseline).
type Transform struct {
	// Label names the series the way the paper's legends do.
	Label string
	// Ratio is the nominal compression ratio (1 for the baseline).
	Ratio float64
	// Apply maps a batch to its post-round-trip version.
	Apply func(x *tensor.Tensor) (*tensor.Tensor, error)
}

// Baseline is the no-compression transform ("base" in the figures).
func Baseline() Transform {
	return Transform{
		Label: "base",
		Ratio: 1,
		Apply: func(x *tensor.Tensor) (*tensor.Tensor, error) { return x, nil },
	}
}

// applyCodec adapts a registry codec's round trip (which takes the
// serialization-free batched path for dctc) to the Transform signature.
func applyCodec(c codec.Codec) func(x *tensor.Tensor) (*tensor.Tensor, error) {
	return func(x *tensor.Tensor) (*tensor.Tensor, error) {
		out, _, err := c.RoundTrip(x)
		return out, err
	}
}

// dctcAt builds a dctc codec and pre-compiles it for resolution n, so
// incompatible (config, n) pairs fail at construction exactly like
// core.NewCompressor used to.
func dctcAt(spec string, n int) (codec.Codec, error) {
	c, err := codec.New(spec)
	if err != nil {
		return nil, err
	}
	if _, err := codec.Compiler(c, n); err != nil {
		return nil, err
	}
	return c, nil
}

// Chop returns the DCT+Chop round-trip transform at the given chop
// factor for n×n inputs.
func Chop(cf, n int) (Transform, error) {
	c, err := dctcAt(fmt.Sprintf("dctc:cf=%d", cf), n)
	if err != nil {
		return Transform{}, err
	}
	return Transform{
		Label: fmt.Sprintf("%.2f", c.Ratio()),
		Ratio: c.Ratio(),
		Apply: applyCodec(c),
	}, nil
}

// SG returns the scatter/gather-variant round-trip transform (§3.5.2).
func SG(cf, n int) (Transform, error) {
	c, err := dctcAt(fmt.Sprintf("dctc:cf=%d,sg", cf), n)
	if err != nil {
		return Transform{}, err
	}
	return Transform{
		Label: fmt.Sprintf("SG %.2f", c.Ratio()),
		Ratio: c.Ratio(),
		Apply: applyCodec(c),
	}, nil
}

// JPEG returns the full JPEG-style round trip at the given quality
// factor — the Dodge & Karam [15] experiment the paper's related work
// builds on (training-data compression via JPEG QF).
func JPEG(quality int) (Transform, error) {
	c, err := codec.New(fmt.Sprintf("jpegq:q=%d", quality))
	if err != nil {
		return Transform{}, err
	}
	return Transform{
		Label: fmt.Sprintf("jpeg q%d", quality),
		// JPEG's ratio is data-dependent (the VLE stage); 0 marks it
		// unknown-until-measured in the tables.
		Ratio: 0,
		Apply: applyCodec(c),
	}, nil
}

// ZFP returns a ZFP round-trip transform at the given bits-per-value
// rate (the Fig. 9 baseline).
func ZFP(rate float64) (Transform, error) {
	c, err := codec.New(fmt.Sprintf("zfp:rate=%g", rate))
	if err != nil {
		return Transform{}, err
	}
	return Transform{
		Label: fmt.Sprintf("zfp %.2f", c.Ratio()),
		Ratio: c.Ratio(),
		Apply: applyCodec(c),
	}, nil
}

// TrainOpts sizes one accuracy run. The defaults (DefaultTrainOpts)
// scale the paper's 30-epoch benchmarks down to what a CPU-only Go
// substrate trains in minutes; DESIGN.md documents the substitution.
type TrainOpts struct {
	Epochs    int
	TrainSize int
	TestSize  int
	BatchSize int
	N         int // resolution (n×n)
	Seed      uint64
}

// DefaultTrainOpts returns the harness defaults.
func DefaultTrainOpts() TrainOpts {
	return TrainOpts{Epochs: 8, TrainSize: 192, TestSize: 64, BatchSize: 32, N: 32, Seed: 17}
}

// TrainResult is one series of Fig. 7/8: per-epoch training loss and
// test metric (accuracy for classify, loss for the others).
type TrainResult struct {
	Benchmark  string
	Label      string
	Ratio      float64
	TrainLoss  []float64
	TestMetric []float64 // per-epoch test accuracy or test loss
	// MetricIsAccuracy distinguishes the classify benchmark (higher is
	// better) from the loss-metric benchmarks (lower is better).
	MetricIsAccuracy bool
}

// Final returns the last-epoch test metric.
func (r TrainResult) Final() float64 {
	return r.TestMetric[len(r.TestMetric)-1]
}

// RunClassify trains the classify benchmark (ResNet-style CNN on the
// 10-class synthetic set) under the transform.
func RunClassify(tr Transform, o TrainOpts) (TrainResult, error) {
	gen := datagen.NewClassify(o.Seed, o.N, 10)
	trainX, trainY := gen.Batch(o.TrainSize)
	testX, testY := gen.Batch(o.TestSize)
	rng := tensor.NewRNG(o.Seed + 1)
	model := models.NewResNetS(rng, 10)
	opt := nn.NewAdam(0.002)
	res := TrainResult{Benchmark: "classify", Label: tr.Label, Ratio: tr.Ratio, MetricIsAccuracy: true}
	for epoch := 0; epoch < o.Epochs; epoch++ {
		var epochLoss float64
		batches := 0
		for lo := 0; lo < o.TrainSize; lo += o.BatchSize {
			hi := min(lo+o.BatchSize, o.TrainSize)
			x, err := tr.Apply(trainX.SliceDim0(lo, hi).Clone())
			if err != nil {
				return res, err
			}
			logits := model.Forward(x, true)
			loss, grad := nn.SoftmaxCrossEntropy(logits, trainY[lo:hi])
			model.ZeroGrad()
			model.Backward(grad)
			opt.Step(model.Params())
			epochLoss += loss
			batches++
		}
		res.TrainLoss = append(res.TrainLoss, epochLoss/float64(batches))
		logits := model.Forward(testX, false)
		res.TestMetric = append(res.TestMetric, metrics.Accuracy(logits, testY))
	}
	return res, nil
}

// RunDenoise trains the em_denoise benchmark: the encoder-decoder maps
// compressed noisy micrographs to their clean versions; test loss is
// measured on uncompressed noisy inputs.
func RunDenoise(tr Transform, o TrainOpts) (TrainResult, error) {
	gen := datagen.NewDenoise(o.Seed, o.N)
	trainNoisy, trainClean := gen.Batch(o.TrainSize)
	testNoisy, testClean := gen.Batch(o.TestSize)
	rng := tensor.NewRNG(o.Seed + 1)
	model := models.NewEncDec(rng)
	opt := nn.NewAdam(0.001)
	res := TrainResult{Benchmark: "em_denoise", Label: tr.Label, Ratio: tr.Ratio}
	for epoch := 0; epoch < o.Epochs; epoch++ {
		var epochLoss float64
		batches := 0
		for lo := 0; lo < o.TrainSize; lo += o.BatchSize {
			hi := min(lo+o.BatchSize, o.TrainSize)
			x, err := tr.Apply(trainNoisy.SliceDim0(lo, hi).Clone())
			if err != nil {
				return res, err
			}
			pred := model.Forward(x, true)
			loss, grad := nn.MSELoss(pred, trainClean.SliceDim0(lo, hi))
			model.ZeroGrad()
			model.Backward(grad)
			opt.Step(model.Params())
			epochLoss += loss
			batches++
		}
		res.TrainLoss = append(res.TrainLoss, epochLoss/float64(batches))
		pred := model.Forward(testNoisy, false)
		testLoss, _ := nn.MSELoss(pred, testClean)
		res.TestMetric = append(res.TestMetric, testLoss)
	}
	return res, nil
}

// RunOptical trains the optical_damage benchmark: the autoencoder
// reconstructs healthy beam images; the training batch (input and
// reconstruction target alike) is the compressed round trip, and test
// loss is reconstruction MSE on uncompressed healthy images.
func RunOptical(tr Transform, o TrainOpts) (TrainResult, error) {
	gen := datagen.NewOptical(o.Seed, o.N)
	trainX := gen.Batch(o.TrainSize)
	testX := gen.Batch(o.TestSize)
	rng := tensor.NewRNG(o.Seed + 1)
	model := models.NewAutoencoder(rng)
	opt := nn.NewAdam(0.001)
	res := TrainResult{Benchmark: "optical_damage", Label: tr.Label, Ratio: tr.Ratio}
	for epoch := 0; epoch < o.Epochs; epoch++ {
		var epochLoss float64
		batches := 0
		for lo := 0; lo < o.TrainSize; lo += o.BatchSize {
			hi := min(lo+o.BatchSize, o.TrainSize)
			x, err := tr.Apply(trainX.SliceDim0(lo, hi).Clone())
			if err != nil {
				return res, err
			}
			pred := model.Forward(x, true)
			loss, grad := nn.MSELoss(pred, x)
			model.ZeroGrad()
			model.Backward(grad)
			opt.Step(model.Params())
			epochLoss += loss
			batches++
		}
		res.TrainLoss = append(res.TrainLoss, epochLoss/float64(batches))
		pred := model.Forward(testX, false)
		testLoss, _ := nn.MSELoss(pred, testX)
		res.TestMetric = append(res.TestMetric, testLoss)
	}
	return res, nil
}

// RunCloud trains the slstr_cloud benchmark: the UNet segments cloud
// pixels from compressed multi-channel scenes; masks stay uncompressed.
func RunCloud(tr Transform, o TrainOpts) (TrainResult, error) {
	const channels = 3 // scaled from the paper's 9-channel stacks
	gen := datagen.NewCloudSeg(o.Seed, o.N, channels)
	trainX, trainM := gen.Batch(o.TrainSize)
	testX, testM := gen.Batch(o.TestSize)
	rng := tensor.NewRNG(o.Seed + 1)
	model := models.NewUNet(rng, channels, 4)
	opt := nn.NewAdam(0.002)
	res := TrainResult{Benchmark: "slstr_cloud", Label: tr.Label, Ratio: tr.Ratio}
	zero := func() {
		for _, p := range model.Params() {
			p.Grad.Zero()
		}
	}
	for epoch := 0; epoch < o.Epochs; epoch++ {
		var epochLoss float64
		batches := 0
		for lo := 0; lo < o.TrainSize; lo += o.BatchSize {
			hi := min(lo+o.BatchSize, o.TrainSize)
			x, err := tr.Apply(trainX.SliceDim0(lo, hi).Clone())
			if err != nil {
				return res, err
			}
			logits := model.Forward(x, true)
			loss, grad := nn.BCEWithLogits(logits, trainM.SliceDim0(lo, hi))
			zero()
			model.Backward(grad)
			opt.Step(model.Params())
			epochLoss += loss
			batches++
		}
		res.TrainLoss = append(res.TrainLoss, epochLoss/float64(batches))
		logits := model.Forward(testX, false)
		testLoss, _ := nn.BCEWithLogits(logits, testM)
		res.TestMetric = append(res.TestMetric, testLoss)
	}
	return res, nil
}

// Runner is one benchmark's training entry point.
type Runner func(Transform, TrainOpts) (TrainResult, error)

// Benchmarks maps benchmark name to runner, in Table 3 order.
func Benchmarks() []struct {
	Name string
	Run  Runner
} {
	return []struct {
		Name string
		Run  Runner
	}{
		{"classify", RunClassify},
		{"em_denoise", RunDenoise},
		{"optical_damage", RunOptical},
		{"slstr_cloud", RunCloud},
	}
}

// PercentDiffSeries converts a result into the Fig. 8 y-axis: per-epoch
// percent difference of the test metric against the baseline run.
func PercentDiffSeries(r, base TrainResult) []float64 {
	out := make([]float64, len(r.TestMetric))
	for i := range out {
		out[i] = metrics.PercentDiff(r.TestMetric[i], base.TestMetric[i])
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
