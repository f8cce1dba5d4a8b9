package repro

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/accel/platforms"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// These integration tests exercise the whole stack end to end — data
// generation → compression → device compilation/execution → training →
// baselines — the way the CLI harnesses do, at unit-test scale.

func TestEndToEndTrainingWithDeviceCompression(t *testing.T) {
	// Generate data, compile the compressor for the CS-2, compress each
	// training batch through the simulated device, decompress on the
	// host, train, and verify learning happened.
	const n, bd = 16, 16
	gen := datagen.NewClassify(3, n, 10)
	comp, err := core.NewCompressor(core.Config{ChopFactor: 5, Serialization: 1}, n)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := comp.BuildCompressGraph(bd, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev := platforms.ByName("CS-2")
	prog, err := dev.Compile(cg)
	if err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(4)
	model := nn.NewSequential(
		nn.NewConv2d(rng, "c1", 3, 8, 3, 1, 1),
		nn.NewReLU(),
		nn.NewMaxPool2d(2),
		nn.NewFlatten(),
		nn.NewLinear(rng, "fc", 8*8*8, 10),
	)
	opt := nn.NewAdam(0.005)
	var first, last float64
	for step := 0; step < 30; step++ {
		x, labels := gen.Batch(bd)
		// Device-side compression: run the compiled graph.
		outs, _, err := prog.Run(map[string]*tensor.Tensor{"A": x})
		if err != nil {
			t.Fatal(err)
		}
		compressed := &core.Compressed{
			Config: comp.Config(), BatchSize: bd, Channels: 3, N: n,
			Chunks: outs,
		}
		restored, err := comp.Decompress(compressed)
		if err != nil {
			t.Fatal(err)
		}
		logits := model.Forward(restored, true)
		loss, grad := nn.SoftmaxCrossEntropy(logits, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		model.ZeroGrad()
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if last >= first {
		t.Fatalf("no learning through device-compressed pipeline: %g → %g", first, last)
	}
}

func TestAllCompressorsOnSameScientificData(t *testing.T) {
	// The full baseline matrix on one dataset: DCT+Chop, ZFP-style
	// fixed-rate, SZ-style error-bounded. Each must hold its own
	// contract on the same micrographs.
	gen := datagen.NewDenoise(9, 32)
	noisy, _ := gen.Batch(4)

	comp, err := core.NewCompressor(core.Config{ChopFactor: 4, Serialization: 1}, 32)
	if err != nil {
		t.Fatal(err)
	}
	y, err := comp.Compress(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y.EffectiveRatio()-4) > 1e-9 {
		t.Fatalf("chop ratio %g, want exactly 4 (fixed at compile time)", y.EffectiveRatio())
	}

	zc, err := codec.New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	zOut, zBytes, err := zc.RoundTrip(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(noisy.Data())*4)/float64(zBytes) < 3.9 {
		t.Fatal("ZFP fixed-rate budget not honoured")
	}
	if metrics.PSNR(noisy, zOut) < 20 {
		t.Fatal("ZFP reconstruction implausibly bad")
	}

	sc, err := codec.New("sz:eb=0.01")
	if err != nil {
		t.Fatal(err)
	}
	sOut, _, err := sc.RoundTrip(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if sOut.MaxAbsDiff(noisy) > 0.01+1e-6 {
		t.Fatal("SZ error bound violated")
	}
}

func TestCompressedFileInterchange(t *testing.T) {
	// Compress on one "machine", write the container to a file, decode
	// it with a codec built fresh from its header — the acc-compress
	// CLI flow — and match the reconstruction of a core compressor
	// configured directly. The zfp4 transform must survive the trip.
	gen := datagen.NewClassify(5, 32, 10)
	x, _ := gen.Batch(4)
	for _, tc := range []struct {
		spec string
		cfg  core.Config
	}{
		{"dctc:cf=3,s=2", core.Config{ChopFactor: 3, Serialization: 2}},
		{"dctc:cf=3,s=2,transform=zfp4", core.Config{ChopFactor: 3, Serialization: 2, Transform: core.TransformZFP4}},
	} {
		src, err := codec.New(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		data, err := src.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "batch.accf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, c, err := codec.DecodeFile(path)
		if err != nil {
			t.Fatalf("%s: DecodeFile: %v", tc.spec, err)
		}
		if c.Spec() != src.Spec() {
			t.Fatalf("%s: header rebuilt codec %q, want %q", tc.spec, c.Spec(), src.Spec())
		}
		fromBytes, _, err := codec.DecodeBytes(data)
		if err != nil {
			t.Fatalf("%s: DecodeBytes: %v", tc.spec, err)
		}
		comp, err := core.NewCompressor(tc.cfg, 32)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := comp.RoundTrip(x)
		if err != nil {
			t.Fatal(err)
		}
		if !fromFile.Equal(direct) || !fromBytes.Equal(direct) {
			t.Fatalf("%s: file interchange changed the reconstruction", tc.spec)
		}
	}
}

func TestHarnessSmoke(t *testing.T) {
	// One tiny end-to-end pass over each experiment family, as the CLIs
	// drive them.
	if testing.Short() {
		t.Skip("training smoke test")
	}
	o := experiments.TrainOpts{Epochs: 1, TrainSize: 16, TestSize: 8, BatchSize: 8, N: 16, Seed: 2}
	tr, err := experiments.Chop(4, o.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range experiments.Benchmarks() {
		if _, err := b.Run(tr, o); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	rows := experiments.SweepResolution(platforms.Accelerators(), experiments.Decompress, []int{64}, []int{4})
	if len(rows) != 4 {
		t.Fatalf("sweep rows %d", len(rows))
	}
	for _, r := range rows {
		if r.CompileErr != "" {
			t.Fatalf("%s: %s", r.Device, r.CompileErr)
		}
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	// The reproducibility contract behind EXPERIMENTS.md: identical
	// seeds give bit-identical results across the whole stack.
	run := func() []float64 {
		o := experiments.TrainOpts{Epochs: 2, TrainSize: 16, TestSize: 8, BatchSize: 8, N: 16, Seed: 11}
		tr, err := experiments.Chop(4, o.N)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiments.RunDenoise(tr, o)
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]float64(nil), res.TrainLoss...), res.TestMetric...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}
