// Command acc-train regenerates the paper's accuracy evaluation:
// Table 2 (datasets), Table 3 (benchmark configurations), Fig. 7
// (training loss per epoch), Fig. 8 (test accuracy/loss percent
// difference vs the no-compression baseline), Fig. 9 (DCT+Chop vs ZFP)
// and Fig. 16 (the scatter/gather variant's accuracy).
//
// Each training batch is compressed and decompressed before it reaches
// the model, exactly as §4.1 describes. The benchmarks are the scaled
// synthetic stand-ins documented in DESIGN.md; -epochs/-train/-test/-n
// control the scale.
//
// Usage:
//
//	acc-train -table2 -table3
//	acc-train -fig7 -fig8            # full chop-factor sweep, 4 benchmarks
//	acc-train -fig9                  # classify + em_denoise vs ZFP
//	acc-train -fig16                 # SG variant, classify + em_denoise
//	acc-train -all -epochs 12
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/models"
	"repro/internal/report"
)

func main() {
	var (
		table2 = flag.Bool("table2", false, "print Table 2 dataset inventory")
		table3 = flag.Bool("table3", false, "print Table 3 benchmark configs")
		fig7   = flag.Bool("fig7", false, "training loss per epoch, all benchmarks x CR")
		fig8   = flag.Bool("fig8", false, "test metric percent difference vs baseline")
		fig9   = flag.Bool("fig9", false, "DCT+Chop vs ZFP (classify, em_denoise)")
		fig16  = flag.Bool("fig16", false, "scatter/gather accuracy (classify, em_denoise)")
		jpegQF = flag.Bool("jpeg", false, "related work [15]: classify accuracy vs JPEG quality factor")
		all    = flag.Bool("all", false, "run everything")
		epochs = flag.Int("epochs", 0, "override training epochs (default: harness default)")
		train  = flag.Int("train", 0, "override training-set size")
		test   = flag.Int("test", 0, "override test-set size")
		n      = flag.Int("n", 0, "override sample resolution")
		seed   = flag.Uint64("seed", 0, "override dataset/weight seed")
		csvDir = flag.String("csv", "", "directory to write per-figure CSV files")
	)
	flag.Parse()
	if *all {
		*table2, *table3, *fig7, *fig8, *fig9, *fig16, *jpegQF = true, true, true, true, true, true, true
	}
	if !(*table2 || *table3 || *fig7 || *fig8 || *fig9 || *fig16 || *jpegQF) {
		flag.Usage()
		os.Exit(2)
	}

	opts := experiments.DefaultTrainOpts()
	if *epochs > 0 {
		opts.Epochs = *epochs
	}
	if *train > 0 {
		opts.TrainSize = *train
	}
	if *test > 0 {
		opts.TestSize = *test
	}
	if *n > 0 {
		opts.N = *n
	}
	if *seed > 0 {
		opts.Seed = *seed
	}

	emit := func(name string, t *report.Table) {
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fail(err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := report.WriteCSVFile(t, *csvDir, name); err != nil {
				fail(err)
			}
		}
	}

	if *table2 {
		t := report.New("Table 2: benchmark datasets (paper originals; synthetic stand-ins per DESIGN.md)",
			"Dataset", "Size (GB)", "Type", "Task", "Sample Size")
		for _, d := range datagen.Table2() {
			t.Add(d.Name, d.SizeGB, d.Type, d.Task, d.SampleSize)
		}
		emit("table2", t)
	}
	if *table3 {
		t := report.New("Table 3: evaluation benchmarks",
			"Test", "Dataset", "Network", "Sample Size", "BS", "LR")
		for _, c := range models.Table3() {
			t.Add(c.Test, c.Dataset, c.Network, c.SampleSize, c.BatchSize, c.LearningRate)
		}
		emit("table3", t)
	}

	if *fig7 || *fig8 {
		transforms := []experiments.Transform{experiments.Baseline()}
		for _, cf := range []int{2, 3, 4, 5, 6, 7} {
			tr, err := experiments.Chop(cf, opts.N)
			if err != nil {
				fail(err)
			}
			transforms = append(transforms, tr)
		}
		lossT := report.New("Fig. 7: average training loss per epoch (series = CR)",
			header(opts.Epochs, "benchmark", "CR")...)
		diffT := report.New("Fig. 8: test accuracy/loss percent difference vs baseline",
			header(opts.Epochs, "benchmark", "CR")...)
		for _, b := range experiments.Benchmarks() {
			var base experiments.TrainResult
			for i, tr := range transforms {
				fmt.Fprintf(os.Stderr, "training %s / %s ...\n", b.Name, tr.Label)
				res, err := b.Run(tr, opts)
				if err != nil {
					fail(err)
				}
				if i == 0 {
					base = res
				}
				if *fig7 {
					lossT.Add(seriesCells(b.Name, tr.Label, res.TrainLoss)...)
				}
				if *fig8 && i > 0 {
					diffT.Add(seriesCells(b.Name, tr.Label, experiments.PercentDiffSeries(res, base))...)
				}
			}
		}
		if *fig7 {
			emit("fig7", lossT)
		}
		if *fig8 {
			emit("fig8", diffT)
		}
	}

	if *fig9 {
		t := report.New("Fig. 9: DCT+Chop vs ZFP, test metric percent difference vs baseline",
			header(opts.Epochs, "benchmark", "series")...)
		for _, b := range experiments.Benchmarks()[:2] { // classify, em_denoise
			base, err := b.Run(experiments.Baseline(), opts)
			if err != nil {
				fail(err)
			}
			var series []experiments.Transform
			for _, cf := range []int{2, 4, 6} {
				tr, err := experiments.Chop(cf, opts.N)
				if err != nil {
					fail(err)
				}
				tr.Label = "dct " + tr.Label
				series = append(series, tr)
			}
			for _, rate := range []float64{2, 8, 18} { // CR 16, 4, 1.78
				tr, err := experiments.ZFP(rate)
				if err != nil {
					fail(err)
				}
				series = append(series, tr)
			}
			for _, tr := range series {
				fmt.Fprintf(os.Stderr, "training %s / %s ...\n", b.Name, tr.Label)
				res, err := b.Run(tr, opts)
				if err != nil {
					fail(err)
				}
				t.Add(seriesCells(b.Name, tr.Label, experiments.PercentDiffSeries(res, base))...)
			}
		}
		emit("fig9", t)
	}

	if *jpegQF {
		// Dodge & Karam [15]: even a quality factor of 10 keeps image
		// classification accuracy close to the no-compression baseline.
		t := report.New("Related work [15]: classify test-accuracy percent difference vs JPEG quality factor",
			header(opts.Epochs, "benchmark", "series")...)
		base, err := experiments.RunClassify(experiments.Baseline(), opts)
		if err != nil {
			fail(err)
		}
		for _, q := range []int{10, 25, 50, 75, 95} {
			tr, err := experiments.JPEG(q)
			if err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "training classify / %s ...\n", tr.Label)
			res, err := experiments.RunClassify(tr, opts)
			if err != nil {
				fail(err)
			}
			t.Add(seriesCells("classify", tr.Label, experiments.PercentDiffSeries(res, base))...)
		}
		emit("jpeg-qf", t)
	}

	if *fig16 {
		lossT := report.New("Fig. 16 (left): training loss with scatter/gather",
			header(opts.Epochs, "benchmark", "series")...)
		diffT := report.New("Fig. 16 (right): test metric percent difference with scatter/gather",
			header(opts.Epochs, "benchmark", "series")...)
		for _, b := range experiments.Benchmarks()[:2] {
			base, err := b.Run(experiments.Baseline(), opts)
			if err != nil {
				fail(err)
			}
			for _, cf := range []int{2, 3, 4, 5, 6, 7} {
				tr, err := experiments.SG(cf, opts.N)
				if err != nil {
					fail(err)
				}
				fmt.Fprintf(os.Stderr, "training %s / %s ...\n", b.Name, tr.Label)
				res, err := b.Run(tr, opts)
				if err != nil {
					fail(err)
				}
				lossT.Add(seriesCells(b.Name, tr.Label, res.TrainLoss)...)
				diffT.Add(seriesCells(b.Name, tr.Label, experiments.PercentDiffSeries(res, base))...)
			}
		}
		emit("fig16-loss", lossT)
		emit("fig16-diff", diffT)
	}
}

func header(epochs int, first, second string) []string {
	h := []string{first, second}
	for e := 1; e <= epochs; e++ {
		h = append(h, fmt.Sprintf("ep%d", e))
	}
	return h
}

func seriesCells(benchmark, label string, series []float64) []any {
	cells := []any{benchmark, label}
	for _, v := range series {
		cells = append(cells, v)
	}
	return cells
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "acc-train:", err)
	os.Exit(1)
}
