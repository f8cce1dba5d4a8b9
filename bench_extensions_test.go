package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/accel/graphcore"
	"repro/internal/codec"
	"repro/internal/colorspace"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Extension benches: the future-work features layered on the paper's
// core (see DESIGN.md "System inventory" extension rows).

// BenchmarkZFPTransformVariant compares the two portable transforms at
// matched CR=4 in the same fused pipeline (future work §6).
func BenchmarkZFPTransformVariant(b *testing.B) {
	x := benchBatch(8, 3, 64)
	for _, cfg := range []core.Config{
		{ChopFactor: 4, Serialization: 1},                                // DCT8, CR 4
		{ChopFactor: 2, Serialization: 1, Transform: core.TransformZFP4}, // ZFP4, CR 4
	} {
		cfg := cfg
		b.Run(cfg.Transform.String(), func(b *testing.B) {
			comp := mustComp(b, cfg, 64)
			b.SetBytes(int64(x.SizeBytes()))
			for i := 0; i < b.N; i++ {
				if _, err := comp.RoundTrip(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColorspace measures the RGB↔YCbCr overhead the paper avoids
// by staying in RGB (§3.2).
func BenchmarkColorspace(b *testing.B) {
	x := benchBatch(8, 3, 64)
	b.SetBytes(int64(x.SizeBytes()))
	for i := 0; i < b.N; i++ {
		colorspace.YCbCrToRGB(colorspace.RGBToYCbCr(x))
	}
}

// BenchmarkCompressionTargets measures the activation and gradient
// future-work targets' host-side cost on a realistic small layer.
func BenchmarkCompressionTargets(b *testing.B) {
	rng := tensor.NewRNG(1)
	rt, err := codec.New("dctc:cf=5,planen=16")
	if err != nil {
		b.Fatal(err)
	}
	x := rng.Uniform(0, 1, 8, 4, 16, 16)
	g := rng.Uniform(-0.1, 0.1, 8, 8, 16, 16)

	b.Run("activations", func(b *testing.B) {
		layer := nn.NewCheckpointCompress(nn.NewConv2d(rng, "c", 4, 8, 3, 1, 1), rt)
		for i := 0; i < b.N; i++ {
			layer.Forward(x, true)
			layer.Backward(g)
		}
	})
	b.Run("gradients", func(b *testing.B) {
		p := nn.NewParam("p", rng.Uniform(-1, 1, 4096))
		opt := nn.NewGradCompressOptimizer(nn.NewSGD(0.01, 0), rt)
		for i := 0; i < b.N; i++ {
			p.Grad.Fill(0.1)
			opt.Step([]*nn.Param{p})
		}
	})
}

// BenchmarkClusterScaling sweeps the data-parallel scaling model across
// deployed form factors (§4.2.2's scalability remark).
func BenchmarkClusterScaling(b *testing.B) {
	for _, size := range []int{1, 4, 16, 64} {
		size := size
		b.Run(fmt.Sprintf("IPUx%d", size), func(b *testing.B) {
			cluster, err := accel.NewCluster(graphcore.New(), size, 500*time.Microsecond)
			if err != nil {
				b.Fatal(err)
			}
			var st accel.Stats
			for i := 0; i < b.N; i++ {
				p, err := cluster.CompileSharded(128, func(shard int) (*graph.Graph, error) {
					comp, err := core.NewCompressor(core.Config{ChopFactor: 4, Serialization: 1}, 256)
					if err != nil {
						return nil, err
					}
					return comp.BuildDecompressGraph(shard, 3)
				})
				if err != nil {
					b.Fatal(err)
				}
				st = p.Estimate()
			}
			b.ReportMetric(st.ThroughputGBs(128*3*256*256*4), "sim_GB/s")
		})
	}
}

// BenchmarkErrorBoundedBaselines compares the host reference codecs
// (§2.2's two design philosophies) against DCT+Chop on micrograph-like
// data, reporting achieved compression ratio.
func BenchmarkErrorBoundedBaselines(b *testing.B) {
	x := benchBatch(4, 1, 64)
	b.Run("dct-chop-cr4", func(b *testing.B) {
		comp := mustComp(b, core.Config{ChopFactor: 4, Serialization: 1}, 64)
		b.SetBytes(int64(x.SizeBytes()))
		var ratio float64
		for i := 0; i < b.N; i++ {
			y, err := comp.Compress(x)
			if err != nil {
				b.Fatal(err)
			}
			ratio = y.EffectiveRatio()
		}
		b.ReportMetric(ratio, "ratio")
	})
	// The host reference codecs' ratios count their registry containers.
	for _, bc := range []struct{ name, spec string }{{"sz-eb1e-2", "sz:eb=1e-2"}, {"zfp-rate8", "zfp:rate=8"}} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := codec.New(bc.spec)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(x.SizeBytes()))
			var ratio float64
			for i := 0; i < b.N; i++ {
				data, err := c.Compress(x)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(x.SizeBytes()) / float64(len(data))
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}
