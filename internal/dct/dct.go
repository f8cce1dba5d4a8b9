// Package dct implements the discrete cosine transform machinery behind
// the DCT+Chop compressor: the DCT-II transform matrix T (paper Eq. 2),
// the direct double-sum form (Eq. 1) used as a reference, the
// block-diagonal T_L and chop mask M that fuse into the compressor's LHS
// and RHS matrices (Fig. 4, Eq. 4/6), zigzag traversal order, the
// upper-left-triangle index sets used by the Graphcore scatter/gather
// optimization, and the FLOP-count formulas (Eq. 5, 7).
package dct

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BlockSize is the paper's fixed transform block size: DCT+Chop operates
// on 8×8 chunks, the JPEG-standard size that balances transform cost
// against locality (§3.2).
const BlockSize = 8

// Transform returns the n×n DCT-II matrix T of Eq. 2:
//
//	T[i][j] = 1/√n                        if i == 0
//	T[i][j] = √(2/n)·cos(π(2j+1)i / 2n)   if i > 0
//
// T is orthonormal: T·Tᵀ = I, so D = T·A·Tᵀ applies the 2-D DCT and
// A = Tᵀ·D·T inverts it.
func Transform(n int) *tensor.Tensor {
	if n <= 0 {
		panic(fmt.Sprintf("dct: Transform size %d must be positive", n))
	}
	t := tensor.New(n, n)
	inv := 1 / math.Sqrt(float64(n))
	scale := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			if i == 0 {
				v = inv
			} else {
				v = scale * math.Cos(math.Pi*float64(2*j+1)*float64(i)/(2*float64(n)))
			}
			t.Set2(float32(v), i, j)
		}
	}
	return t
}

// Apply2D computes D = T·A·Tᵀ for an n×n block A, the matrix form of the
// 2-D DCT-II.
func Apply2D(a *tensor.Tensor) *tensor.Tensor {
	n := a.Dim(0)
	t := Transform(n)
	return tensor.MatMul(tensor.MatMul(t, a), t.Transpose())
}

// Invert2D computes A = Tᵀ·D·T, the inverse 2-D DCT-II.
func Invert2D(d *tensor.Tensor) *tensor.Tensor {
	n := d.Dim(0)
	t := Transform(n)
	return tensor.MatMul(tensor.MatMul(t.Transpose(), d), t)
}

// Direct2D evaluates the double-sum DCT-II of Eq. 1 in float64. It is
// O(n⁴) and exists purely as the reference against which the matrix
// formulation is validated.
func Direct2D(a *tensor.Tensor) *tensor.Tensor {
	n := a.Dim(0)
	out := tensor.New(n, n)
	c := func(w int) float64 {
		if w == 0 {
			return 1 / math.Sqrt2
		}
		return 1
	}
	s := func(u, v int) float64 {
		return math.Cos(float64(2*u+1) * float64(v) * math.Pi / (2 * float64(n)))
	}
	// Normalization: (2/n)·C(i)C(j) makes the double sum agree with the
	// orthonormal matrix form T·A·Tᵀ of Eq. 2 (Eq. 1's 1/√(2N)·C(i)C(j)
	// with the factor-of-2 of the cosine product absorbed).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					sum += float64(a.At2(x, y)) * s(x, i) * s(y, j)
				}
			}
			v := (2 / float64(n)) * c(i) * c(j) * sum
			out.Set2(float32(v), i, j)
		}
	}
	return out
}

// ChopMask returns the mask matrix M of Fig. 4 for an n×n input with
// chop factor cf: a (cf·n/b)×n matrix of cf×cf identity sub-blocks, one
// per b-wide block column, so that M·D·Mᵀ retains the upper-left cf×cf
// corner of every b×b block of D. n must be a multiple of b.
func ChopMask(n, cf, b int) *tensor.Tensor {
	if n%b != 0 {
		panic(fmt.Sprintf("dct: ChopMask n=%d not a multiple of block size %d", n, b))
	}
	if cf < 1 || cf > b {
		panic(fmt.Sprintf("dct: ChopMask chop factor %d outside [1,%d]", cf, b))
	}
	nblks := n / b
	out := tensor.New(cf*nblks, n)
	for blk := 0; blk < nblks; blk++ {
		for i := 0; i < cf; i++ {
			// Row blk*cf+i has its single 1 at column blk*b+i.
			out.Set2(1, blk*cf+i, blk*b+i)
		}
	}
	return out
}

// ZigZag returns the classic JPEG zigzag traversal order of an n×n
// block: a permutation of flat indices i*n+j visiting anti-diagonals
// alternately upward and downward (Fig. 2, green path).
func ZigZag(n int) []int {
	order := make([]int, 0, n*n)
	for d := 0; d < 2*n-1; d++ {
		if d%2 == 0 {
			// Upward: start at bottom of the anti-diagonal.
			i := d
			if i > n-1 {
				i = n - 1
			}
			j := d - i
			for i >= 0 && j < n {
				order = append(order, i*n+j)
				i--
				j++
			}
		} else {
			j := d
			if j > n-1 {
				j = n - 1
			}
			i := d - j
			for j >= 0 && i < n {
				order = append(order, i*n+j)
				i++
				j--
			}
		}
	}
	return order
}

// TriangleIndices returns the flat indices (i*b+j with i+j < cf) of the
// upper-left triangle of a b×b block — the values the Graphcore SG
// optimization retains instead of the full cf×cf square (§3.5.2, Fig. 6).
// Indices are emitted in row-major order.
func TriangleIndices(cf, b int) []int {
	if cf < 1 || cf > b {
		panic(fmt.Sprintf("dct: TriangleIndices chop factor %d outside [1,%d]", cf, b))
	}
	idx := make([]int, 0, cf*(cf+1)/2)
	for i := 0; i < cf; i++ {
		for j := 0; i+j < cf; j++ {
			idx = append(idx, i*b+j)
		}
	}
	return idx
}

// TriangleCount returns cf(cf+1)/2, the number of coefficients the SG
// variant keeps per block.
func TriangleCount(cf int) int { return cf * (cf + 1) / 2 }

// CompressFLOPs evaluates Eq. 5, the floating-point operation count of
// compressing one n×n plane with chop factor cf (block size 8):
//
//	FLOPs = (2n³·cf/8)·(cf/8 + 1) − n²·(cf/8 + cf²/64)
func CompressFLOPs(n, cf int) float64 {
	nf, c := float64(n), float64(cf)
	return (2*nf*nf*nf*c/8)*(c/8+1) - nf*nf*(c/8+c*c/64)
}

// DecompressFLOPs evaluates Eq. 7, the operation count of decompressing
// one plane:
//
//	FLOPs = (2n³·cf/8)·(cf/8 + 1) − n²·(cf/8 + 1)
func DecompressFLOPs(n, cf int) float64 {
	nf, c := float64(n), float64(cf)
	return (2*nf*nf*nf*c/8)*(c/8+1) - nf*nf*(c/8+1)
}
