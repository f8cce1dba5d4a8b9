package jpegq

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cpufeat"
	"repro/internal/dct"
	"repro/internal/vle"
)

// This file is the allocation-free plane engine behind the codec: a
// cached 8×8 DCT pair that replays tensor.MatMul's serial kernel
// bit-for-bit (so quantized coefficients — and therefore the entropy
// stream — are byte-identical to the tensor-based pipeline it
// replaced), plus flat quantize/dequantize loops over pooled int32
// zigzag buffers.

var (
	// dctT is the 8×8 DCT-II matrix of dct.Transform(8) and dctTt its
	// transpose, both flattened row-major.
	dctT  [64]float32
	dctTt [64]float32
	// zzOrder is the zigzag traversal of an 8×8 block.
	zzOrder [64]int
)

func init() {
	t := dct.Transform(BlockSize).Data()
	copy(dctT[:], t)
	for i := 0; i < BlockSize; i++ {
		for j := 0; j < BlockSize; j++ {
			dctTt[j*BlockSize+i] = t[i*BlockSize+j]
		}
	}
	copy(zzOrder[:], dct.ZigZag(BlockSize))
}

// mm8 computes the 8×8 product c = a·b with exactly the loop the
// general matmul kernel runs for this size (serial i-k-j with the
// zero-row skip and float32 accumulation), so results match
// tensor.MatMul to the last bit.
func mm8(c, a, b *[64]float32) {
	for i := 0; i < BlockSize; i++ {
		ai := a[i*BlockSize : i*BlockSize+BlockSize : i*BlockSize+BlockSize]
		// Accumulate the output row in registers instead of memory: the
		// adds happen in the same p-ascending order (and keep the same
		// zero-row skip) as the general kernel, so every rounding step —
		// and therefore the quantized stream — is unchanged.
		var c0, c1, c2, c3, c4, c5, c6, c7 float32
		for p := 0; p < BlockSize; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*BlockSize : p*BlockSize+BlockSize : p*BlockSize+BlockSize]
			c0 += float32(av * bp[0])
			c1 += float32(av * bp[1])
			c2 += float32(av * bp[2])
			c3 += float32(av * bp[3])
			c4 += float32(av * bp[4])
			c5 += float32(av * bp[5])
			c6 += float32(av * bp[6])
			c7 += float32(av * bp[7])
		}
		ci := c[i*BlockSize : i*BlockSize+BlockSize : i*BlockSize+BlockSize]
		ci[0], ci[1], ci[2], ci[3] = c0, c1, c2, c3
		ci[4], ci[5], ci[6], ci[7] = c4, c5, c6, c7
	}
}

// forwardDCT8 computes dst = T·src·Tᵀ (the 2-D DCT-II), matching
// dct.Apply2D bit-for-bit.
func forwardDCT8(dst, src *[64]float32) {
	var tmp [64]float32
	if cpufeat.Have().AVX2 {
		mm8AVX2(&tmp, &dctT, src)
		mm8AVX2(dst, &tmp, &dctTt)
		return
	}
	mm8(&tmp, &dctT, src)
	mm8(dst, &tmp, &dctTt)
}

// inverseDCT8 computes dst = Tᵀ·src·T, matching dct.Invert2D.
func inverseDCT8(dst, src *[64]float32) {
	var tmp [64]float32
	if cpufeat.Have().AVX2 {
		mm8AVX2(&tmp, &dctTt, src)
		mm8AVX2(dst, &tmp, &dctT)
		return
	}
	mm8(&tmp, &dctTt, src)
	mm8(dst, &tmp, &dctT)
}

// quantizePlane runs the lossy half of the pipeline — level shift, 8×8
// DCT, quantization, zigzag — over one h×w plane (values in [0,1]),
// writing 64 coefficients per block into dst in block raster order.
// dst must have length (h/8)·(w/8)·64.
func quantizePlane(dst []int32, plane []float32, h, w int, table *[64]int) {
	countPlaneCall()
	var blk, d [64]float32
	k := 0
	for bi := 0; bi < h; bi += BlockSize {
		for bj := 0; bj < w; bj += BlockSize {
			if cpufeat.Have().AVX2 {
				levelShift8AVX2(&blk, &plane[bi*w+bj], w)
			} else {
				for i := 0; i < BlockSize; i++ {
					row := plane[(bi+i)*w+bj : (bi+i)*w+bj+BlockSize]
					for j, v := range row {
						blk[i*BlockSize+j] = float32(v*255) - 128
					}
				}
			}
			forwardDCT8(&d, &blk)
			for z, ix := range zzOrder {
				dst[k+z] = quantize(float64(d[ix]) / float64(table[ix]))
			}
			k += 64
		}
	}
}

// quantize rounds q half away from zero to an int32. Go leaves the
// conversion of NaN, or of a value past the int32 range, to the
// platform — amd64 gives math.MinInt32, arm64 saturates — so such a q
// becomes math.MinInt32 here, the value vle refuses, on every GOARCH.
func quantize(q float64) int32 {
	if q >= 0 {
		q += 0.5
	} else {
		q -= 0.5
	}
	if !(q > math.MinInt32-1 && q < math.MaxInt32+1) {
		return math.MinInt32
	}
	return int32(q)
}

// dequantizePlane inverts quantizePlane: src holds 64 zigzagged
// coefficients per block in block raster order.
func dequantizePlane(plane []float32, src []int32, h, w int, table *[64]int) {
	countPlaneCall()
	var d, rec [64]float32
	k := 0
	for bi := 0; bi < h; bi += BlockSize {
		for bj := 0; bj < w; bj += BlockSize {
			for z, ix := range zzOrder {
				d[ix] = float32(int(src[k+z]) * table[ix])
			}
			k += 64
			inverseDCT8(&rec, &d)
			if cpufeat.Have().AVX2 {
				storeShift8AVX2(&plane[bi*w+bj], w, &rec)
			} else {
				for i := 0; i < BlockSize; i++ {
					row := plane[(bi+i)*w+bj : (bi+i)*w+bj+BlockSize]
					for j := range row {
						row[j] = (rec[i*BlockSize+j] + 128) / 255
					}
				}
			}
		}
	}
}

// coeffPool recycles flat coefficient buffers across planes and calls.
var coeffPool = sync.Pool{New: func() any { return new([]int32) }}

// getCoeffs returns a coefficient buffer of length n with arbitrary
// contents — every caller overwrites all of it before reading — plus
// the pool box to hand back to putCoeffs (re-boxing the slice on Put
// would itself allocate).
func getCoeffs(n int) ([]int32, *[]int32) {
	bp := coeffPool.Get().(*[]int32)
	if cap(*bp) < n {
		*bp = make([]int32, n)
	}
	return (*bp)[:n], bp
}

func putCoeffs(bp *[]int32) { coeffPool.Put(bp) }

// RoundTripPlane compresses one h×w plane (values in [0,1], dims
// multiples of 8) and reconstructs it into out, returning the
// compressed size in bytes. in and out may alias. It codes no vle
// stream: vle is lossless on every coefficient it accepts, so the
// plane dequantizes from the quantized coefficients themselves and
// vle.FlatLen sizes the stream. All scratch is pooled, so steady-state
// round trips allocate nothing.
func (c *Codec) RoundTripPlane(out, in []float32, h, w, channel int) (int, error) {
	if err := checkPlane(len(in), h, w); err != nil {
		return 0, err
	}
	if len(out) != len(in) {
		return 0, fmt.Errorf("jpegq: %d-value plane into %d values", len(in), len(out))
	}
	table, err := c.TableFor(channel)
	if err != nil {
		return 0, err
	}
	coeffs, coeffsBox := getCoeffs((h / BlockSize) * (w / BlockSize) * 64)
	defer putCoeffs(coeffsBox)
	quantizePlane(coeffs, in, h, w, &table)
	n, err := vle.FlatLen(coeffs, 64)
	if err != nil {
		return 0, err
	}
	dequantizePlane(out, coeffs, h, w, &table)
	return n, nil
}
