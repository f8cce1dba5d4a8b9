package jpegq

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/dct"
	"repro/internal/tensor"
)

func TestScaleTableQualityDirection(t *testing.T) {
	// Lower quality ⇒ larger divisors everywhere.
	lo, err := ScaleTable(LuminanceTable(), 10)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := ScaleTable(LuminanceTable(), 90)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lo {
		if lo[i] < hi[i] {
			t.Fatalf("entry %d: q10 divisor %d < q90 divisor %d", i, lo[i], hi[i])
		}
	}
}

func TestScaleTableQuality50IsBase(t *testing.T) {
	// At quality 50, S = 100: the table is unchanged.
	got, err := ScaleTable(LuminanceTable(), 50)
	if err != nil {
		t.Fatal(err)
	}
	base := LuminanceTable()
	for i := range got {
		if got[i] != base[i] {
			t.Fatalf("entry %d: %d != %d at q50", i, got[i], base[i])
		}
	}
}

func TestScaleTableValidation(t *testing.T) {
	for _, q := range []int{0, -5, 101} {
		if _, err := ScaleTable(LuminanceTable(), q); err == nil {
			t.Fatalf("quality %d must be rejected", q)
		}
	}
}

func TestScaleTableClamps(t *testing.T) {
	tab, err := ScaleTable(LuminanceTable(), 1) // S = 5000: everything saturates
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tab {
		if v < 1 || v > 255 {
			t.Fatalf("entry %d = %d outside [1,255]", i, v)
		}
	}
}

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	r := tensor.NewRNG(1)
	d := r.Uniform(-200, 200, 8, 8)
	table := LuminanceTable()
	q := QuantizeBlock(d, table)
	// Error bounded by half a quantization step per coefficient.
	for i := range d.Data() {
		if diff := float64(float32(q[i]*table[i]) - d.Data()[i]); diff > float64(table[i])/2+1e-3 || diff < -float64(table[i])/2-1e-3 {
			t.Fatalf("coeff %d: error %g exceeds step %d", i, diff, table[i])
		}
	}
}

func TestQuantizeRoundsToNearest(t *testing.T) {
	d := tensor.New(8, 8)
	d.Set2(25, 0, 0) // divisor 16 → 25/16 = 1.5625 → 2
	d.Set2(-25, 0, 1)
	q := QuantizeBlock(d, LuminanceTable())
	if q[0] != 2 {
		t.Fatalf("quantize(25/16) = %d, want 2", q[0])
	}
	if q[1] != -2 { // divisor 11 → −25/11 ≈ −2.27 → −2
		t.Fatalf("quantize(-25/11) = %d, want -2", q[1])
	}
}

func TestNonzeroHeatmapsShape(t *testing.T) {
	gen := datagen.NewClassify(3, 32, 10)
	imgs, _ := gen.Batch(20)
	maps, err := NonzeroHeatmaps(imgs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 3 {
		t.Fatalf("got %d heatmaps, want one per channel", len(maps))
	}
	for _, h := range maps {
		if h.Blocks != 20*16 {
			t.Fatalf("channel %d counted %d blocks, want 320", h.Channel, h.Blocks)
		}
		for i := range h.Frac {
			for j := range h.Frac[i] {
				if h.Frac[i][j] < 0 || h.Frac[i][j] > 1 {
					t.Fatalf("fraction out of range: %g", h.Frac[i][j])
				}
			}
		}
	}
}

func TestHeatmapFig3Structure(t *testing.T) {
	// The Fig. 3 observations this reproduction relies on:
	//  1. the DC coefficient is almost always nonzero,
	//  2. nonzero frequency decays toward high-frequency corners,
	//  3. lower quality factor produces fewer nonzeros overall.
	gen := datagen.NewClassify(5, 32, 10)
	imgs, _ := gen.Batch(50)
	lowQ, err := NonzeroHeatmaps(imgs, 10)
	if err != nil {
		t.Fatal(err)
	}
	highQ, err := NonzeroHeatmaps(imgs, 90)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if highQ[c].Frac[0][0] < 0.9 {
			t.Errorf("channel %d: DC nonzero fraction %g < 0.9 at q90", c, highQ[c].Frac[0][0])
		}
		if highQ[c].Frac[7][7] > highQ[c].Frac[0][0] {
			t.Errorf("channel %d: corner more active than DC", c)
		}
		var lowSum, highSum float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				lowSum += lowQ[c].Frac[i][j]
				highSum += highQ[c].Frac[i][j]
			}
		}
		if lowSum >= highSum {
			t.Errorf("channel %d: q10 has more nonzeros (%g) than q90 (%g)", c, lowSum, highSum)
		}
	}
}

func TestHeatmapUpperLeftDominance(t *testing.T) {
	// Chop's premise: the upper-left CF×CF corner holds most of the
	// nonzero mass. Compare 4×4 corner activity against the rest.
	gen := datagen.NewClassify(7, 32, 10)
	imgs, _ := gen.Batch(30)
	maps, err := NonzeroHeatmaps(imgs, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range maps {
		var corner, rest float64
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if i < 4 && j < 4 {
					corner += h.Frac[i][j]
				} else {
					rest += h.Frac[i][j]
				}
			}
		}
		// 16 corner cells vs 48 outer cells: per-cell average must be
		// higher in the corner.
		if corner/16 <= rest/48 {
			t.Errorf("channel %d: corner density %g not above outer %g", h.Channel, corner/16, rest/48)
		}
	}
}

func TestNonzeroHeatmapsValidation(t *testing.T) {
	if _, err := NonzeroHeatmaps(tensor.New(2, 3, 30, 30), 50); err == nil {
		t.Fatal("non-multiple-of-8 resolution must be rejected")
	}
	if _, err := NonzeroHeatmaps(tensor.New(8, 8), 50); err == nil {
		t.Fatal("2-D input must be rejected")
	}
	if _, err := NonzeroHeatmaps(tensor.New(1, 1, 8, 8), 0); err == nil {
		t.Fatal("quality 0 must be rejected")
	}
}

func TestQuantizationCreatesZigzagSparsity(t *testing.T) {
	// After aggressive quantization, the zigzag tail should be mostly
	// zero — the property VLE exploits and chop approximates.
	gen := datagen.NewClassify(9, 32, 10)
	imgs, _ := gen.Batch(5)
	table, err := ScaleTable(LuminanceTable(), 10)
	if err != nil {
		t.Fatal(err)
	}
	order := dct.ZigZag(8)
	block := tensor.New(8, 8)
	tailNonzero, tailTotal := 0, 0
	for s := 0; s < 5; s++ {
		for bi := 0; bi < 32; bi += 8 {
			for bj := 0; bj < 32; bj += 8 {
				for i := 0; i < 8; i++ {
					for j := 0; j < 8; j++ {
						block.Set2(imgs.At4(s, 0, bi+i, bj+j)*255-128, i, j)
					}
				}
				q := QuantizeBlock(dct.Apply2D(block), table)
				for _, ix := range order[32:] {
					tailTotal++
					if q[ix] != 0 {
						tailNonzero++
					}
				}
			}
		}
	}
	if frac := float64(tailNonzero) / float64(tailTotal); frac > 0.25 {
		t.Fatalf("zigzag tail nonzero fraction %g too high at q10", frac)
	}
}
