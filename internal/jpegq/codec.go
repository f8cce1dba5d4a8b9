package jpegq

import (
	"fmt"

	"repro/internal/vle"
)

// Codec holds the plane kernels of the complete JPEG-style pipeline —
// level shift, 8×8 DCT-II, quality-scaled quantization, zigzag,
// RLE+Huffman — the host baseline behind the paper's related work:
// Dodge & Karam [15] study exactly this codec's quality factor against
// model accuracy, and §3.2 explains why its encoding stage cannot run
// on the accelerators.
//
// Each plane (values in [0,1], dims multiples of 8) is one standalone
// stream quantized with the table of its channel index: channel 0 with
// luminance, the rest with chrominance (matching NonzeroHeatmaps). The
// codec registry's "jpegq" family frames whole [BD, C, n, n] batches
// of these planes; that payload is the only batch form.
type Codec struct {
	// Quality is the JPEG quality factor in [1,100].
	Quality int
}

// NewCodec returns a codec at the given quality factor.
func NewCodec(quality int) (*Codec, error) {
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("jpegq: quality %d outside [1,100]", quality)
	}
	return &Codec{Quality: quality}, nil
}

// TableFor returns the quality-scaled quantization table for a channel
// index: channel 0 quantizes with luminance, the rest with chrominance.
func (c *Codec) TableFor(channel int) ([64]int, error) {
	base := luminance
	if channel > 0 {
		base = chrominance
	}
	return ScaleTable(base, c.Quality)
}

// checkPlane validates a plane of n values as h×w with both dims
// multiples of 8.
func checkPlane(n, h, w int) error {
	if h < 1 || w < 1 || n != h*w {
		return fmt.Errorf("jpegq: %d values are not one %dx%d plane", n, h, w)
	}
	if h%BlockSize != 0 || w%BlockSize != 0 {
		return fmt.Errorf("jpegq: plane %dx%d not a multiple of %d", h, w, BlockSize)
	}
	return nil
}

// EncodePlane encodes one h×w plane, stored row-major in plane (values
// in [0,1], dims multiples of 8), as a standalone RLE+Huffman stream
// quantized with the table for the given channel index — the
// plane-parallel entry point the codec registry's pipeline uses. A
// coefficient vle refuses — −32768, its end-of-block value, or one
// past ±(2³¹−1) — fails the encode rather than being clamped: only a
// pixel far outside [0,1] reaches it.
func (c *Codec) EncodePlane(plane []float32, h, w, channel int) ([]byte, error) {
	if err := checkPlane(len(plane), h, w); err != nil {
		return nil, err
	}
	table, err := c.TableFor(channel)
	if err != nil {
		return nil, err
	}
	coeffs, coeffsBox := getCoeffs((h / BlockSize) * (w / BlockSize) * 64)
	defer putCoeffs(coeffsBox)
	quantizePlane(coeffs, plane, h, w, &table)
	return vle.AppendFlat(nil, coeffs, 64)
}

// DecodePlane reconstructs one h×w plane from an EncodePlane stream,
// writing into plane.
func (c *Codec) DecodePlane(data []byte, plane []float32, h, w, channel int) error {
	if err := checkPlane(len(plane), h, w); err != nil {
		return err
	}
	table, err := c.TableFor(channel)
	if err != nil {
		return err
	}
	coeffs, coeffsBox := getCoeffs((h / BlockSize) * (w / BlockSize) * 64)
	defer putCoeffs(coeffsBox)
	if err := vle.DecodeFlatInto(coeffs, data, 64); err != nil {
		return err
	}
	dequantizePlane(plane, coeffs, h, w, &table)
	return nil
}
