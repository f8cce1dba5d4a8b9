package dct

import (
	"fmt"

	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// Kernel is the structure-aware fast execution path for the fused
// DCT+Chop round trip. The dense formulation runs Y = (M·T_L)·A·(T_Lᵀ·Mᵀ)
// as full matrix products even though the fused LHS is block-diagonal
// with only CF of every b rows non-zero per block. The kernel exploits
// that structure directly: per b×b block of the plane,
//
//	Y_IJ = F · A_IJ · Fᵀ   (compress)
//	A_IJ = G · Y_IJ · Gᵀ   (decompress)
//
// where F is the CF×b matrix of *retained* transform rows (the non-zero
// rows of M·T_L restricted to one block) and G is the b×CF expansion
// matrix (Fᵀ for the orthonormal DCT; the first CF columns of T⁻¹ for
// the non-orthogonal ZFP transform). Chopped rows are never computed or
// read. Each plane is processed in two separable passes (a row pass then
// a column pass), so the per-plane cost falls from the dense
// O(m·n² + m²·n) to O(n²·CF + m²·b): roughly 20–40× fewer multiply-adds
// at n=512, CF=4.
//
// Both passes accept a row stride for the full-resolution operand, so
// partially-serialized (s>1) chunks are transformed in place inside the
// parent plane without materializing chunk copies.
type Kernel struct {
	b  int // transform block edge
	cf int // retained rows/columns per block

	fwd []float32 // F, cf×b row-major: retained rows of the transform
	inv []float32 // G, b×cf row-major: retained columns of the inverse

	// The vector kernels' coefficient tables, built once by NewKernel
	// for b = 4 and b = 8 (nil otherwise). fwdTab entry r*8+p holds F[r,p] in all
	// 8 lanes and invTab entry c*8+q holds G[q,c]; each mask entry is
	// all ones unless its coefficient is ±0, the portable column pass's
	// zero skip. invCols[c*8+q] = G[q,c] are the G columns the inverse
	// row kernel multiplies by, zero past cf.
	fwdTab, invTab   []float32
	fwdMask, invMask []int32
	invCols          []float32
}

// NewKernel builds the fast kernel for a b×b transform matrix t, its
// inverse it (pass the transpose for orthonormal transforms), and chop
// factor cf.
func NewKernel(t, it *tensor.Tensor, cf int) *Kernel {
	if t.Dims() != 2 || t.Dim(0) != t.Dim(1) {
		panic(fmt.Sprintf("dct: NewKernel transform must be square, got %v", t.Shape()))
	}
	b := t.Dim(0)
	if !t.SameShape(it) {
		panic(fmt.Sprintf("dct: NewKernel inverse shape %v does not match transform %v", it.Shape(), t.Shape()))
	}
	if cf < 1 || cf > b {
		panic(fmt.Sprintf("dct: NewKernel chop factor %d outside [1,%d]", cf, b))
	}
	k := &Kernel{b: b, cf: cf, fwd: make([]float32, cf*b), inv: make([]float32, b*cf)}
	for r := 0; r < cf; r++ {
		for j := 0; j < b; j++ {
			k.fwd[r*b+j] = t.At2(r, j)
		}
	}
	for q := 0; q < b; q++ {
		for c := 0; c < cf; c++ {
			k.inv[q*cf+c] = it.At2(q, c)
		}
	}
	if b == 4 || b == 8 {
		k.fwdTab, k.fwdMask = broadcastTable(cf, b, func(r, p int) float32 { return k.fwd[r*b+p] })
		k.invTab, k.invMask = broadcastTable(cf, b, func(c, q int) float32 { return k.inv[q*cf+c] })
		k.invCols = make([]float32, 8*8)
		for c := 0; c < cf; c++ {
			for q := 0; q < b; q++ {
				k.invCols[c*8+q] = k.inv[q*cf+c]
			}
		}
	}
	return k
}

// broadcastTable lays out coef(o, i) for o < outs, i < ins as entry
// o*8+i of 8 lanes each, with its zero-skip mask.
func broadcastTable(outs, ins int, coef func(o, i int) float32) ([]float32, []int32) {
	tab := make([]float32, outs*8*8)
	mask := make([]int32, outs*8*8)
	for o := 0; o < outs; o++ {
		for i := 0; i < ins; i++ {
			v := coef(o, i)
			for l := (o*8 + i) * 8; l < (o*8+i+1)*8; l++ {
				tab[l] = v
				if v != 0 {
					mask[l] = -1
				}
			}
		}
	}
	return tab, mask
}

// M returns the compressed plane edge cf·n/b for an n-edge input plane.
func (k *Kernel) M(n int) int { return k.cf * n / k.b }

// ScratchLen returns the intermediate-buffer length both passes need for
// an n-edge plane: the n×m (forward) / m×n (inverse) half-transformed
// plane.
func (k *Kernel) ScratchLen(n int) int { return n * k.M(n) }

// laneMask[c] has its first c lanes set to all-ones: the load/store
// masks for cf-wide outputs and cols%8-wide column tails.
var laneMask [9][8]int32

func init() {
	for c := 1; c <= 8; c++ {
		for j := 0; j < c; j++ {
			laneMask[c][j] = -1
		}
	}
}

// checkPlane panics unless buf holds rows rows of w floats at stride,
// the bound every kernel pass, vector or portable, relies on.
func checkPlane(op, name string, buf []float32, stride, rows, w int) {
	if stride < w {
		panic(fmt.Sprintf("dct: Kernel.%s %s stride %d narrower than its %d-wide rows", op, name, stride, w))
	}
	if rows > 0 && len(buf) < (rows-1)*stride+w {
		panic(fmt.Sprintf("dct: Kernel.%s %s holds %d floats, need %d", op, name, len(buf), (rows-1)*stride+w))
	}
}

// Forward computes the fused compression Y = F_L·A·F_Lᵀ of one n×n plane.
// src holds the plane rows at srcStride; dst receives the m×m chopped
// plane (m = cf·n/b) at dstStride. scratch must hold ScratchLen(n)
// float32s and is fully overwritten. n must be a multiple of the block
// size, and each stride at least its row width. Forward performs no
// allocation.
func (k *Kernel) Forward(dst []float32, dstStride int, src []float32, srcStride, n int, scratch []float32) {
	// The AVX2 column kernels take b = 4 or 8, the blocks with tables;
	// the row kernels take b = 8 alone. Each is bit-identical to its
	// portable loop, the oracle.
	b, cf := k.b, k.cf
	vec := cpufeat.Have().AVX2 && k.fwdTab != nil
	countKernelCall(vec && b == 8)
	if n%b != 0 {
		panic(fmt.Sprintf("dct: Kernel.Forward n=%d not a multiple of block size %d", n, b))
	}
	nblks := n / b
	m := cf * nblks
	if len(scratch) < n*m {
		panic(fmt.Sprintf("dct: Kernel.Forward scratch %d < %d", len(scratch), n*m))
	}
	checkPlane("Forward", "src", src, srcStride, n, n)
	checkPlane("Forward", "dst", dst, dstStride, m, m)
	// Row pass: R = A·F_Lᵀ (n×m). Each source row contracts every b-wide
	// block segment against the cf retained transform rows. The
	// dispatched kernel handles 8-row bands of 8-wide blocks (b == 8
	// forces n%8 == 0: no remainder rows); b != 8 and no SIMD take the
	// portable loop.
	if vec && b == 8 {
		mask := &laneMask[cf][0]
		for i := 0; i+8 <= n; i += 8 {
			fwdBand8AVX2(&scratch[i*m], m, &src[i*srcStride], srcStride, nblks, cf, &k.fwdTab[0], mask)
		}
	} else {
		k.forwardRows(scratch, m, src, srcStride, n)
	}
	// Column pass: Y = F_L·R (m×m). Output row I·cf+r accumulates the b
	// half-transformed rows of block-row I, weighted by transform row r —
	// a contiguous axpy per source row, so both streams stay sequential.
	// The dispatched kernel emits a whole block row per call.
	if vec {
		tail := &laneMask[m%8][0]
		for blkI := 0; blkI < nblks; blkI++ {
			fwdColAVX2(&dst[blkI*cf*dstStride], dstStride, &scratch[blkI*b*m], m, m, b, cf, &k.fwdTab[0], &k.fwdMask[0], tail)
		}
		return
	}
	for blkI := 0; blkI < nblks; blkI++ {
		for r := 0; r < cf; r++ {
			d := dst[(blkI*cf+r)*dstStride : (blkI*cf+r)*dstStride+m]
			portableColPass(d, scratch[blkI*b*m:], m, k.fwd[r*b:(r+1)*b])
		}
	}
}

// forwardRows is the portable forward row pass — the oracle the
// dispatched band kernel must match bit-for-bit. The explicit float32
// conversion of each product keeps the compiler from fusing it into the
// add on architectures with a fused multiply-add.
func (k *Kernel) forwardRows(scratch []float32, m int, src []float32, srcStride, n int) {
	b, cf := k.b, k.cf
	nblks := n / b
	for i := 0; i < n; i++ {
		row := src[i*srcStride : i*srcStride+n]
		out := scratch[i*m : (i+1)*m]
		for blk := 0; blk < nblks; blk++ {
			a := row[blk*b : (blk+1)*b]
			o := out[blk*cf : (blk+1)*cf]
			for c := 0; c < cf; c++ {
				f := k.fwd[c*b : (c+1)*b]
				var s float32
				for p, av := range a {
					s += float32(av * f[p])
				}
				o[c] = s
			}
		}
	}
}

// portableColPass computes one column-pass output row d from the rows
// of scratch (at stride m): d[j] = Σ coef[p]·scratch[p*m+j], skipping
// zero coefficients. The dispatched column kernels must match it
// bit-for-bit.
func portableColPass(d, scratch []float32, m int, coef []float32) {
	for x := range d {
		d[x] = 0
	}
	for p := range coef {
		fv := coef[p]
		if fv == 0 {
			continue
		}
		srow := scratch[p*m : (p+1)*m]
		for j, sv := range srow {
			d[j] += float32(fv * sv)
		}
	}
}

// Inverse computes the fused decompression A' = G_L·Y·G_Lᵀ of one m×m
// chopped plane back to n×n. src holds the m×m plane rows at srcStride;
// dst receives the n×n reconstruction at dstStride. scratch must hold
// ScratchLen(n) float32s, and each stride must be at least its row
// width. Inverse performs no allocation.
func (k *Kernel) Inverse(dst []float32, dstStride int, src []float32, srcStride, n int, scratch []float32) {
	// The vector kernels run as in Forward.
	b, cf := k.b, k.cf
	vec := cpufeat.Have().AVX2 && k.fwdTab != nil
	countKernelCall(vec && b == 8)
	if n%b != 0 {
		panic(fmt.Sprintf("dct: Kernel.Inverse n=%d not a multiple of block size %d", n, b))
	}
	nblks := n / b
	m := cf * nblks
	if len(scratch) < m*n {
		panic(fmt.Sprintf("dct: Kernel.Inverse scratch %d < %d", len(scratch), m*n))
	}
	checkPlane("Inverse", "src", src, srcStride, m, m)
	checkPlane("Inverse", "dst", dst, dstStride, n, n)
	// Row pass: R = Y·G_Lᵀ (m×n). Each chopped row expands every cf-wide
	// block segment back to b columns through G. The dispatched kernel
	// runs every row, 8 outputs of a block per vector.
	if vec && b == 8 && m > 0 {
		invRowsAVX2(&scratch[0], n, &src[0], srcStride, m, nblks, cf, &k.invCols[0])
	} else {
		k.inverseRows(scratch, n, src, srcStride, m)
	}
	// Column pass: A' = G_L·R (n×n). Only the cf retained rows of each
	// block-row exist in R; every output row is a cf-term axpy sum. The
	// dispatched kernel emits a whole block row per call.
	if vec {
		tail := &laneMask[n%8][0]
		for blkI := 0; blkI < nblks; blkI++ {
			invColAVX2(&dst[blkI*b*dstStride], dstStride, &scratch[blkI*cf*n], n, n, b, cf, &k.invTab[0], &k.invMask[0], tail)
		}
		return
	}
	for blkI := 0; blkI < nblks; blkI++ {
		for q := 0; q < b; q++ {
			d := dst[(blkI*b+q)*dstStride : (blkI*b+q)*dstStride+n]
			portableColPass(d, scratch[blkI*cf*n:], n, k.inv[q*cf:(q+1)*cf])
		}
	}
}

// inverseRows is the portable inverse row pass — the oracle the
// dispatched row kernel must match bit-for-bit.
func (k *Kernel) inverseRows(scratch []float32, n int, src []float32, srcStride, m int) {
	b, cf := k.b, k.cf
	nblks := n / b
	for i := 0; i < m; i++ {
		row := src[i*srcStride : i*srcStride+m]
		out := scratch[i*n : (i+1)*n]
		for blk := 0; blk < nblks; blk++ {
			y := row[blk*cf : (blk+1)*cf]
			o := out[blk*b : (blk+1)*b]
			for q := 0; q < b; q++ {
				g := k.inv[q*cf : (q+1)*cf]
				var s float32
				for c, yv := range y {
					s += float32(yv * g[c])
				}
				o[q] = s
			}
		}
	}
}
