package experiments

import (
	"math"
	"strings"
	"testing"

	"fmt"

	"repro/internal/accel"
	"repro/internal/accel/graphcore"
	"repro/internal/accel/platforms"
	"repro/internal/core"
	"repro/internal/tensor"
)

// tinyOpts keeps the unit-test training runs to a couple of seconds.
func tinyOpts() TrainOpts {
	return TrainOpts{Epochs: 2, TrainSize: 32, TestSize: 16, BatchSize: 16, N: 16, Seed: 5}
}

func TestTransformsConstruct(t *testing.T) {
	if _, err := Chop(4, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := Chop(9, 32); err == nil {
		t.Fatal("invalid chop factor must be rejected")
	}
	if _, err := SG(4, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := ZFP(8); err != nil {
		t.Fatal(err)
	}
	if _, err := ZFP(0); err == nil {
		t.Fatal("invalid rate must be rejected")
	}
	b := Baseline()
	if b.Ratio != 1 || b.Label != "base" {
		t.Fatalf("baseline %+v", b)
	}
	r := tensor.NewRNG(1)
	x := r.Uniform(0, 1, 1, 1, 8, 8)
	out, err := b.Apply(x)
	if err != nil || !out.Equal(x) {
		t.Fatal("baseline must be identity")
	}
}

func TestChopTransformMatchesCompressor(t *testing.T) {
	tr, err := Chop(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCompressor(core.Config{ChopFactor: 4, Serialization: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(2)
	x := r.Uniform(-1, 1, 2, 3, 16, 16)
	got, err := tr.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.RoundTrip(x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("Chop transform must be the compressor round trip")
	}
	if tr.Ratio != 4 {
		t.Fatalf("ratio %g", tr.Ratio)
	}
}

func TestAllBenchmarksRun(t *testing.T) {
	o := tinyOpts()
	tr, err := Chop(4, o.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range Benchmarks() {
		res, err := b.Run(tr, o)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(res.TrainLoss) != o.Epochs || len(res.TestMetric) != o.Epochs {
			t.Fatalf("%s: series lengths %d/%d", b.Name, len(res.TrainLoss), len(res.TestMetric))
		}
		if res.Benchmark != b.Name {
			t.Fatalf("%s: benchmark label %q", b.Name, res.Benchmark)
		}
		if (res.Benchmark == "classify") != res.MetricIsAccuracy {
			t.Fatalf("%s: MetricIsAccuracy = %v", b.Name, res.MetricIsAccuracy)
		}
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	o := tinyOpts()
	a, err := RunClassify(Baseline(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunClassify(Baseline(), o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TrainLoss {
		if a.TrainLoss[i] != b.TrainLoss[i] {
			t.Fatal("same seed must reproduce the training curve exactly")
		}
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	o := tinyOpts()
	o.Epochs = 4
	o.TrainSize = 64
	res, err := RunClassify(Baseline(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainLoss[len(res.TrainLoss)-1] >= res.TrainLoss[0] {
		t.Fatalf("classify training loss did not decrease: %v", res.TrainLoss)
	}
}

func TestPercentDiffSeries(t *testing.T) {
	base := TrainResult{TestMetric: []float64{0.5, 0.4}}
	r := TrainResult{TestMetric: []float64{0.55, 0.3}}
	diffs := PercentDiffSeries(r, base)
	if math.Abs(diffs[0]-10) > 1e-9 || math.Abs(diffs[1]+25) > 1e-9 {
		t.Fatalf("diffs %v", diffs)
	}
}

func TestMeasureCompilesAndTimes(t *testing.T) {
	dev := graphcore.New()
	row := Measure(dev, core.Config{ChopFactor: 4, Serialization: 1}, Decompress, 64, 10, 3)
	if row.CompileErr != "" {
		t.Fatalf("compile error: %s", row.CompileErr)
	}
	if row.SimTime <= 0 || row.Throughput <= 0 {
		t.Fatalf("row %+v", row)
	}
	if row.PayloadBytes() != 4*10*3*64*64 {
		t.Fatalf("payload %d", row.PayloadBytes())
	}
}

func TestMeasureRecordsCompileFailure(t *testing.T) {
	sn30 := platforms.ByName("SN30")
	row := Measure(sn30, core.Config{ChopFactor: 4, Serialization: 1}, Compress, 512, 100, 3)
	if row.CompileErr == "" {
		t.Fatal("SN30 at 512 must record a compile failure")
	}
	if !strings.Contains(row.CompileErr, "memory") {
		t.Fatalf("unexpected failure: %s", row.CompileErr)
	}
	if row.SimTime != 0 {
		t.Fatal("failed compiles must not report a time")
	}
}

func TestPartialSerializationTimesScaleByChunks(t *testing.T) {
	// s=2 issues 4 chunk runs: its time must be ≈4× the single-chunk
	// graph time at the chunk resolution.
	dev := graphcore.New()
	ps := Measure(dev, core.Config{ChopFactor: 4, Serialization: 2}, Decompress, 512, 100, 3)
	chunk := Measure(dev, core.Config{ChopFactor: 4, Serialization: 1}, Decompress, 256, 100, 3)
	if ps.CompileErr != "" || chunk.CompileErr != "" {
		t.Fatalf("unexpected compile failure: %q %q", ps.CompileErr, chunk.CompileErr)
	}
	ratio := float64(ps.SimTime) / float64(chunk.SimTime)
	if ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("PS time ratio %g, want 4", ratio)
	}
}

func TestFig15Shape(t *testing.T) {
	// §4.2.3: s=2 512×512 decompression compiles on SN30 and IPU
	// (unlike no-serialization 512 on SN30) and is only ≈2.5–4× slower
	// than the corresponding 256×256 runs of Fig. 11 despite 4× the
	// data and 4× the matmuls.
	for _, name := range []string{"SN30", "IPU"} {
		dev := platforms.ByName(name)
		rows := SweepPartialSerialization([]*accel.Device{dev}, []int{7, 4, 2})
		if len(rows) != 3 {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		for _, row := range rows {
			if row.CompileErr != "" {
				t.Fatalf("%s cf=%d: %s", name, row.Config.ChopFactor, row.CompileErr)
			}
			base := Measure(dev, core.Config{ChopFactor: row.Config.ChopFactor, Serialization: 1}, Decompress, 256, 100, 3)
			slowdown := float64(row.SimTime) / float64(base.SimTime)
			if slowdown < 2 || slowdown > 4.5 {
				t.Errorf("%s cf=%d: PS slowdown %.2f vs paper's 2.5–3.8×", name, row.Config.ChopFactor, slowdown)
			}
		}
	}
}

func TestSweepResolutionCoversFailures(t *testing.T) {
	rows := SweepResolution(platforms.Accelerators(), Compress, []int{256, 512}, []int{4})
	byDevN := map[string]ThroughputRow{}
	for _, r := range rows {
		byDevN[r.Device+"/"+itoa(r.N)] = r
	}
	// The paper's compile outcomes at 512.
	if byDevN["SN30/512"].CompileErr == "" {
		t.Error("SN30 at 512 must fail")
	}
	if byDevN["GroqChip/512"].CompileErr == "" {
		t.Error("GroqChip at 512 must fail")
	}
	if byDevN["CS-2/512"].CompileErr != "" {
		t.Error("CS-2 at 512 must compile")
	}
	if byDevN["IPU/512"].CompileErr != "" {
		t.Error("IPU at 512 must compile")
	}
}

func TestSweepBatchGroqWall(t *testing.T) {
	rows := SweepBatch([]*accel.Device{platforms.ByName("GroqChip")}, Compress, []int{1000, 2000}, []int{4})
	if rows[0].CompileErr != "" {
		t.Errorf("Groq batch 1000 must compile: %s", rows[0].CompileErr)
	}
	if rows[1].CompileErr == "" {
		t.Error("Groq batch 2000 must fail")
	}
}

func TestSweepSGThroughputTradeoff(t *testing.T) {
	// Fig. 17: SG is slower than chop at equal CF (1.5–2.7×) but has
	// higher CR.
	rows := SweepSG(graphcore.New(), []int{2, 4, 7})
	byKey := map[string]ThroughputRow{}
	for _, r := range rows {
		byKey[itoa(r.Config.ChopFactor)+r.Config.Mode.String()] = r
	}
	for _, cf := range []int{2, 4, 7} {
		chop := byKey[itoa(cf)+core.ModeChop.String()]
		sg := byKey[itoa(cf)+core.ModeSG.String()]
		if chop.CompileErr != "" || sg.CompileErr != "" {
			t.Fatalf("cf=%d compile errors: %q %q", cf, chop.CompileErr, sg.CompileErr)
		}
		if sg.Config.Ratio() <= chop.Config.Ratio() {
			t.Errorf("cf=%d: SG ratio %g not above chop %g", cf, sg.Config.Ratio(), chop.Config.Ratio())
		}
		slowdown := float64(sg.SimTime) / float64(chop.SimTime)
		if slowdown < 1.3 || slowdown > 3.5 {
			t.Errorf("cf=%d: SG slowdown %.2f outside the paper's 1.5–2.7× band", cf, slowdown)
		}
	}
}

func itoa(n int) string {
	return fmt.Sprintf("%d", n)
}

func TestPipelineOverlapMasksCompression(t *testing.T) {
	// §4.2.2: decompression throughput dwarfs the forward/backward pass
	// on the dataflow machines ("the overhead of the compressor is
	// masked in the dataflow pipeline").
	rows := PipelineOverlap(platforms.Accelerators())
	byName := map[string]OverlapRow{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s: %s", r.Device, r.Err)
		}
		byName[r.Device] = r
	}
	for _, name := range []string{"CS-2", "SN30"} {
		r := byName[name]
		if !r.Masked {
			t.Errorf("%s: decompression (%.0f samples/s) does not mask training (%.0f samples/s)", name, r.DecompSamplesPerSec, r.TrainSamplesPerSec)
		}
		if r.Ratio < 10 {
			t.Errorf("%s: masking ratio %.1f; the paper reports orders of magnitude", name, r.Ratio)
		}
	}
	// Devices without cited training rates still report decompression.
	if byName["IPU"].DecompSamplesPerSec <= 0 || byName["IPU"].TrainSamplesPerSec != 0 {
		t.Error("IPU row malformed")
	}
}

func TestZFP4TransformInTraining(t *testing.T) {
	// The future-work transform slots into the accuracy harness too.
	o := tinyOpts()
	c, err := dctcAt("dctc:cf=2,transform=zfp4", o.N)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunClassify(Transform{Label: "zfp4", Ratio: c.Ratio(), Apply: applyCodec(c)}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrainLoss) != o.Epochs {
		t.Fatal("ZFP4 training did not run")
	}
	if res.Ratio != 4 {
		t.Fatalf("ZFP4 cf=2 ratio %g, want 4", res.Ratio)
	}
}
