// Package jpegq implements the JPEG quantization machinery behind the
// paper's Fig. 3 motivation study: the standard luminance/chrominance
// quantization tables, quality-factor scaling, block quantization after
// DCT, and the heatmap of nonzero-coefficient frequency per block
// position that shows why retaining only the upper-left coefficients
// (chop) loses little information.
package jpegq

import (
	"fmt"

	"repro/internal/dct"
	"repro/internal/tensor"
)

// BlockSize is the JPEG transform block size.
const BlockSize = 8

// luminance is the Annex K luminance quantization table.
var luminance = [64]int{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// chrominance is the Annex K chrominance quantization table.
var chrominance = [64]int{
	17, 18, 24, 47, 99, 99, 99, 99,
	18, 21, 26, 66, 99, 99, 99, 99,
	24, 26, 56, 99, 99, 99, 99, 99,
	47, 66, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
	99, 99, 99, 99, 99, 99, 99, 99,
}

// LuminanceTable returns a copy of the base luminance table.
func LuminanceTable() [64]int { return luminance }

// ScaleTable applies the libjpeg quality-factor scaling to a base table:
// lower quality factor ⇒ larger divisors ⇒ more zeros after rounding.
func ScaleTable(base [64]int, quality int) ([64]int, error) {
	if quality < 1 || quality > 100 {
		return base, fmt.Errorf("jpegq: quality %d outside [1,100]", quality)
	}
	var s int
	if quality < 50 {
		s = 5000 / quality
	} else {
		s = 200 - 2*quality
	}
	var out [64]int
	for i, q := range base {
		v := (q*s + 50) / 100
		if v < 1 {
			v = 1
		}
		if v > 255 {
			v = 255
		}
		out[i] = v
	}
	return out, nil
}

// QuantizeBlock divides an 8×8 DCT coefficient block elementwise by the
// table, rounding as the codec's quantize does: half away from zero,
// with NaN and values past the int32 range mapped to math.MinInt32 (the
// loss-introducing step of JPEG).
func QuantizeBlock(d *tensor.Tensor, table [64]int) [64]int {
	if d.Dim(0) != BlockSize || d.Dim(1) != BlockSize {
		panic(fmt.Sprintf("jpegq: QuantizeBlock needs 8x8, got %v", d.Shape()))
	}
	var out [64]int
	for i, v := range d.Data() {
		out[i] = int(quantize(float64(v) / float64(table[i])))
	}
	return out
}

// Heatmap is one Fig. 3 cell grid: Frac[i][j] is the fraction of 8×8
// blocks whose quantized DCT coefficient at (i,j) is nonzero.
type Heatmap struct {
	Quality int
	Channel int
	Frac    [BlockSize][BlockSize]float64
	Blocks  int
}

// NonzeroHeatmaps reproduces Fig. 3 for a [N, C, n, n] image batch with
// pixel values in [0,1]: for every channel it applies the level-shifted
// 8-bit JPEG pipeline (scale to [0,255], subtract 128, DCT, quantize at
// the given quality factor) and tallies nonzero frequencies per block
// position. Channel 0 uses the luminance table; the rest use
// chrominance, as JPEG does after color transform.
func NonzeroHeatmaps(images *tensor.Tensor, quality int) ([]Heatmap, error) {
	if images.Dims() != 4 {
		return nil, fmt.Errorf("jpegq: need [N,C,n,n], got %v", images.Shape())
	}
	n := images.Dim(2)
	if n%BlockSize != 0 || images.Dim(3) != n {
		return nil, fmt.Errorf("jpegq: resolution %dx%d not square blocks", n, images.Dim(3))
	}
	channels := images.Dim(1)
	maps := make([]Heatmap, channels)
	for c := range maps {
		base := luminance
		if c > 0 {
			base = chrominance
		}
		table, err := ScaleTable(base, quality)
		if err != nil {
			return nil, err
		}
		h := Heatmap{Quality: quality, Channel: c}
		block := tensor.New(BlockSize, BlockSize)
		for s := 0; s < images.Dim(0); s++ {
			for bi := 0; bi < n; bi += BlockSize {
				for bj := 0; bj < n; bj += BlockSize {
					for i := 0; i < BlockSize; i++ {
						for j := 0; j < BlockSize; j++ {
							// Level-shifted 8-bit pixel, as in JPEG.
							px := images.At4(s, c, bi+i, bj+j)*255 - 128
							block.Set2(px, i, j)
						}
					}
					q := QuantizeBlock(dct.Apply2D(block), table)
					h.Blocks++
					for i := 0; i < BlockSize; i++ {
						for j := 0; j < BlockSize; j++ {
							if q[i*BlockSize+j] != 0 {
								h.Frac[i][j]++
							}
						}
					}
				}
			}
		}
		if h.Blocks > 0 {
			for i := range h.Frac {
				for j := range h.Frac[i] {
					h.Frac[i][j] /= float64(h.Blocks)
				}
			}
		}
		maps[c] = h
	}
	return maps, nil
}
