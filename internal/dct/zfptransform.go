package dct

import "repro/internal/tensor"

// ZFPBlockSize is the ZFP decorrelating transform's block edge.
const ZFPBlockSize = 4

// ZFPBlockTransform returns the 4×4 ZFP decorrelating transform
// (Lindstrom, "Fixed-Rate Compressed Floating-Point Arrays", TVCG 2014):
//
//	L = 1/16 · ⎡ 4  4  4  4⎤
//	           ⎢ 5  1 -1 -5⎥
//	           ⎢-4  4  4 -4⎥
//	           ⎣-2  6 -6  2⎦
//
// Unlike DCT-II it is *not* orthogonal (L⁻¹ ≠ Lᵀ), but it is linear, so
// it slots into the same fused two-matmul compressor — the "ZFP block
// transform instead of DCT-II" variant the paper's future-work section
// proposes for general scientific floating-point data. The compressor
// computes L⁻¹ once at compile time via tensor.Inverse.
func ZFPBlockTransform() *tensor.Tensor {
	v := []float32{
		4, 4, 4, 4,
		5, 1, -1, -5,
		-4, 4, 4, -4,
		-2, 6, -6, 2,
	}
	t := tensor.FromSlice(v, 4, 4)
	t.ScaleInPlace(1.0 / 16)
	return t
}

// BlockDiag places nblks copies of a b×b matrix along the diagonal of
// an (nblks·b)×(nblks·b) zero matrix. Of the DCT matrix T it is T_L
// (Fig. 4), so that T_L·A·T_Lᵀ applies the DCT to every b×b block of A
// at once.
func BlockDiag(m *tensor.Tensor, nblks int) *tensor.Tensor {
	b := m.Dim(0)
	n := b * nblks
	out := tensor.New(n, n)
	for blk := 0; blk < nblks; blk++ {
		off := blk * b
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				out.Set2(m.At2(i, j), off+i, off+j)
			}
		}
	}
	return out
}
