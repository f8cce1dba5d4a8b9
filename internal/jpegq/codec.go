package jpegq

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tensor"
	"repro/internal/vle"
)

// Codec assembles the complete JPEG-style pipeline from this
// repository's parts — level shift, 8×8 DCT-II, quality-scaled
// quantization, zigzag, RLE+Huffman — as the host baseline behind the
// paper's related work: Dodge & Karam [15] study exactly this codec's
// quality factor against model accuracy, and §3.2 explains why its
// encoding stage cannot run on the accelerators.
//
// Input batches are [BD, C, n, n] with pixel values in [0,1]; channel 0
// quantizes with the luminance table, the rest with chrominance
// (matching NonzeroHeatmaps). n must be a multiple of 8.
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

const codecMagic = 0x4A504751 // "JPGQ"

// Compress encodes the batch, returning the byte stream. A coefficient
// that quantizes to −32768, vle's end-of-block value, fails the encode
// rather than being clamped: only a pixel far outside [0,1] reaches it.
func (c *Codec) Compress(x *tensor.Tensor) ([]byte, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("jpegq: need [BD,C,n,n], got %v", x.Shape())
	}
	bd, ch, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%BlockSize != 0 || w%BlockSize != 0 {
		return nil, fmt.Errorf("jpegq: %dx%d not a multiple of %d", h, w, BlockSize)
	}
	tables, err := c.tables(ch)
	if err != nil {
		return nil, err
	}
	blocksPerPlane := (h / BlockSize) * (w / BlockSize)
	coeffs, coeffsBox := getCoeffs(bd * ch * blocksPerPlane * 64)
	defer putCoeffs(coeffsBox)
	for s := 0; s < bd; s++ {
		for cc := 0; cc < ch; cc++ {
			plane := x.Data()[(s*ch+cc)*h*w : (s*ch+cc+1)*h*w]
			lo := (s*ch + cc) * blocksPerPlane * 64
			quantizePlane(coeffs[lo:lo+blocksPerPlane*64], plane, h, w, &tables[cc])
		}
	}
	body, err := vle.AppendFlat(nil, coeffs, 64)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 24, 24+len(body))
	binary.LittleEndian.PutUint32(out[0:], codecMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(c.Quality))
	binary.LittleEndian.PutUint32(out[8:], uint32(bd))
	binary.LittleEndian.PutUint32(out[12:], uint32(ch))
	binary.LittleEndian.PutUint32(out[16:], uint32(h))
	binary.LittleEndian.PutUint32(out[20:], uint32(w))
	return append(out, body...), nil
}

// Decompress reconstructs a batch from Compress output.
func Decompress(data []byte) (*tensor.Tensor, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("jpegq: truncated header")
	}
	if binary.LittleEndian.Uint32(data[0:]) != codecMagic {
		return nil, fmt.Errorf("jpegq: bad magic")
	}
	quality := int(binary.LittleEndian.Uint32(data[4:]))
	bd := int(binary.LittleEndian.Uint32(data[8:]))
	ch := int(binary.LittleEndian.Uint32(data[12:]))
	h := int(binary.LittleEndian.Uint32(data[16:]))
	w := int(binary.LittleEndian.Uint32(data[20:]))
	const maxDim = 1 << 14
	if quality < 1 || quality > 100 || bd < 1 || ch < 1 || h < 1 || w < 1 ||
		bd > maxDim || ch > maxDim || h > maxDim || w > maxDim || h%BlockSize != 0 || w%BlockSize != 0 {
		return nil, fmt.Errorf("jpegq: implausible header (q=%d %dx%dx%dx%d)", quality, bd, ch, h, w)
	}
	c := &Codec{Quality: quality}
	tables, err := c.tables(ch)
	if err != nil {
		return nil, err
	}
	blocksPerPlane := (h / BlockSize) * (w / BlockSize)
	coeffs, coeffsBox := getCoeffs(bd * ch * blocksPerPlane * 64)
	defer putCoeffs(coeffsBox)
	if err := vle.DecodeFlatInto(coeffs, data[24:], 64); err != nil {
		return nil, err
	}
	out := tensor.New(bd, ch, h, w)
	for s := 0; s < bd; s++ {
		for cc := 0; cc < ch; cc++ {
			plane := out.Data()[(s*ch+cc)*h*w : (s*ch+cc+1)*h*w]
			lo := (s*ch + cc) * blocksPerPlane * 64
			dequantizePlane(plane, coeffs[lo:lo+blocksPerPlane*64], h, w, &tables[cc])
		}
	}
	return out, nil
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

// EncodePlane encodes one h×w plane (values in [0,1], dims multiples of
// 8) as a standalone RLE+Huffman stream quantized with the table for
// the given channel index — the plane-parallel entry point the codec
// registry's pipeline uses.
func (c *Codec) EncodePlane(plane *tensor.Tensor, channel int) ([]byte, error) {
	if plane.Dims() != 2 {
		return nil, fmt.Errorf("jpegq: EncodePlane needs a 2-D plane, got %v", plane.Shape())
	}
	h, w := plane.Dim(0), plane.Dim(1)
	if h%BlockSize != 0 || w%BlockSize != 0 {
		return nil, fmt.Errorf("jpegq: plane %dx%d not a multiple of %d", h, w, BlockSize)
	}
	table, err := c.TableFor(channel)
	if err != nil {
		return nil, err
	}
	coeffs, coeffsBox := getCoeffs((h / BlockSize) * (w / BlockSize) * 64)
	defer putCoeffs(coeffsBox)
	quantizePlane(coeffs, plane.Data(), h, w, &table)
	return vle.AppendFlat(nil, coeffs, 64)
}

// DecodePlane reconstructs one plane from an EncodePlane stream,
// writing into the caller's plane tensor.
func (c *Codec) DecodePlane(data []byte, plane *tensor.Tensor, channel int) error {
	if plane.Dims() != 2 {
		return fmt.Errorf("jpegq: DecodePlane needs a 2-D plane, got %v", plane.Shape())
	}
	h, w := plane.Dim(0), plane.Dim(1)
	if h%BlockSize != 0 || w%BlockSize != 0 {
		return fmt.Errorf("jpegq: plane %dx%d not a multiple of %d", h, w, BlockSize)
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
	dequantizePlane(plane.Data(), coeffs, h, w, &table)
	return nil
}

// RoundTrip compresses and decompresses the batch, returning the
// reconstruction and compressed size.
func (c *Codec) RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	data, err := c.Compress(x)
	if err != nil {
		return nil, 0, err
	}
	out, err := Decompress(data)
	if err != nil {
		return nil, 0, err
	}
	return out, len(data), nil
}

// tables builds per-channel quantization tables at the codec quality.
func (c *Codec) tables(channels int) ([][64]int, error) {
	out := make([][64]int, channels)
	for cc := range out {
		t, err := c.TableFor(cc)
		if err != nil {
			return nil, err
		}
		out[cc] = t
	}
	return out, nil
}

// PSNRAtQuality is a convenience for quality-sweep studies: compress at
// the given quality and report (PSNR, compression ratio).
func PSNRAtQuality(x *tensor.Tensor, quality int) (psnr, ratio float64, err error) {
	c, err := NewCodec(quality)
	if err != nil {
		return 0, 0, err
	}
	out, bytes, err := c.RoundTrip(x)
	if err != nil {
		return 0, 0, err
	}
	mse := 0.0
	xd, od := x.Data(), out.Data()
	for i := range xd {
		d := float64(xd[i]) - float64(od[i])
		mse += d * d
	}
	mse /= float64(len(xd))
	if mse == 0 {
		psnr = math.Inf(1)
	} else {
		psnr = -10 * math.Log10(mse)
	}
	return psnr, float64(x.SizeBytes()) / float64(bytes), nil
}
