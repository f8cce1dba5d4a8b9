// Compression targets: the paper's future-work section (§6, Fig. 1)
// names weights, activations and gradients as the compressor's next
// targets once accelerator APIs expose them. This example exercises the
// two wrappers this library provides for those targets on a small
// training run: compressed activation checkpoints (COMET/ActNN-style
// recompute-from-lossy) and compressed gradients with damped error
// feedback (3LC-style), both driven by the same registry codec
// (dctc:cf=5): any codec.New codec is an nn.RoundTripper. Activations
// keep their [BD,C,n,n] shape and take dctc's planar layout; gradients
// go as rank-1 views through its flat path, which picks its own plane
// edge.
package main

import (
	"fmt"
	"log"

	"repro/internal/codec"
	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func main() {
	const n = 16
	gen := datagen.NewClassify(21, n, 10)
	trainX, trainY := gen.Batch(128)
	testX, testY := gen.Batch(64)

	rt, err := codec.New("dctc:cf=5")
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name  string
		build func() (*nn.Sequential, nn.Optimizer)
	}
	variants := []variant{
		{"baseline (no compression)", func() (*nn.Sequential, nn.Optimizer) {
			return buildModel(nil), nn.NewAdam(0.005)
		}},
		{"compressed activations (CF=5)", func() (*nn.Sequential, nn.Optimizer) {
			return buildModel(rt), nn.NewAdam(0.005)
		}},
		{"compressed gradients (CF=5)", func() (*nn.Sequential, nn.Optimizer) {
			return buildModel(nil), nn.NewGradCompressOptimizer(nn.NewAdam(0.005), rt)
		}},
	}

	for _, v := range variants {
		model, opt := v.build()
		var loss float64
		for epoch := 0; epoch < 6; epoch++ {
			for lo := 0; lo < 128; lo += 32 {
				x := trainX.SliceDim0(lo, lo+32).Clone()
				logits := model.Forward(x, true)
				var grad *tensor.Tensor
				loss, grad = nn.SoftmaxCrossEntropy(logits, trainY[lo:lo+32])
				model.ZeroGrad()
				model.Backward(grad)
				opt.Step(model.Params())
			}
		}
		acc := metrics.Accuracy(model.Forward(testX, false), testY)
		fmt.Printf("%-32s final train loss %.3f, test accuracy %.1f%%", v.name, loss, 100*acc)
		for _, l := range model.Layers {
			if cc, ok := l.(*nn.CheckpointCompress); ok {
				fmt.Printf(", activation memory saved %.2fx", cc.SavingsRatio())
				break
			}
		}
		if g, ok := opt.(*nn.GradCompressOptimizer); ok {
			fmt.Printf(", gradient traffic saved %.2fx", g.SavingsRatio())
		}
		fmt.Println()
	}

	fmt.Println("\nBoth targets reuse the training-data codec unchanged: its flat path")
	fmt.Println("packs any tensor into the compiled static plane shape, which is what")
	fmt.Println("the accelerators' fixed-size constraint allows.")
}

// buildModel assembles a small CNN; when rt is non-nil the convolutions
// store their activations compressed.
func buildModel(rt nn.RoundTripper) *nn.Sequential {
	rng := tensor.NewRNG(9)
	wrap := func(l nn.Layer) nn.Layer {
		if rt == nil {
			return l
		}
		return nn.NewCheckpointCompress(l, rt)
	}
	return nn.NewSequential(
		wrap(nn.NewConv2d(rng, "c1", 3, 8, 3, 1, 1)),
		nn.NewReLU(),
		nn.NewMaxPool2d(2),
		wrap(nn.NewConv2d(rng, "c2", 8, 16, 3, 1, 1)),
		nn.NewReLU(),
		nn.NewMaxPool2d(2),
		nn.NewFlatten(),
		nn.NewLinear(rng, "fc", 16*4*4, 10),
	)
}
