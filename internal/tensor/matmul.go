package tensor

import "fmt"

// matmulParallelFlops is the multiply-add count (m·n·k) above which
// MatMul fans row bands out across the plane pool. Gating on FLOPs rather
// than output size m·n keeps skinny products with a huge inner dimension
// k parallel (their work is real even though the output is small) while
// the 8×8 block transforms that dominate unit tests stay single-threaded,
// avoiding goroutine overhead swamping the arithmetic. The value is the
// cost of a 64³ product, the old 64×64-output threshold at its typical
// inner dimension.
const matmulParallelFlops = 64 * 64 * 64

// MatMul returns the matrix product A×B of two 2-D tensors. It uses a
// cache-blocked i-k-j loop and parallelizes across row bands when the
// output is large enough to amortize the fan-out.
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	c := New(m, n)
	matmulInto(c.data, a.data, b.data, m, k, n)
	return c
}

// matmulInto computes C = A×B, as one row band per pool worker when the
// product is large enough.
func matmulInto(c, a, b []float32, m, k, n int) {
	bands := min(m, workerCap())
	if m*n*k < matmulParallelFlops || bands < 2 {
		matmulRange(c, a, b, 0, m, k, n)
		return
	}
	ParallelFor(bands, func(w int) {
		matmulRange(c, a, b, w*m/bands, (w+1)*m/bands, k, n)
	})
}

// matmulRange computes rows [lo,hi) of C = A×B with an i-k-j loop: the
// innermost loop walks both B and C rows contiguously, which keeps the
// float32 streams prefetch-friendly without explicit tiling.
func matmulRange(c, a, b []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ci := c[i*n : (i+1)*n]
		for x := range ci {
			ci[x] = 0
		}
		ai := a[i*k : (i+1)*k]
		for p, av := range ai {
			if av == 0 {
				continue // chop masks and block-diagonal transforms are sparse
			}
			bp := b[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += float32(av * bv)
			}
		}
	}
}

// MatMulNaive is the textbook triple loop, kept as the reference
// implementation for tests and the ablation bench.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulNaive inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a.data[i*k+p] * b.data[p*n+j])
			}
			c.data[i*n+j] = s
		}
	}
	return c
}

// BatchedMatMul multiplies every trailing m×k matrix of a by b (k×n).
// a has shape [..., m, k]; the result has shape [..., m, n]. This is the
// exact operation the compressor issues: one shared LHS/RHS against a
// whole BD×C batch of image planes. Batches are processed in parallel.
func BatchedMatMul(a, b *Tensor) *Tensor {
	if len(a.shape) < 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: BatchedMatMul requires [...,m,k] × [k,n], got %v × %v", a.shape, b.shape))
	}
	outShape := cloneInts(a.shape)
	outShape[len(outShape)-1] = b.shape[1]
	c := New(outShape...)
	BatchedMatMulInto(c, a, b)
	return c
}

// BatchedMatMulInto computes dst = BatchedMatMul(a, b), reusing dst's
// storage. dst must have a's shape with the last dimension replaced by
// b's column count.
func BatchedMatMulInto(dst, a, b *Tensor) {
	if len(a.shape) < 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: BatchedMatMulInto requires [...,m,k] × [k,n], got %v × %v", a.shape, b.shape))
	}
	m := a.shape[len(a.shape)-2]
	k := a.shape[len(a.shape)-1]
	n := b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: BatchedMatMulInto inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	batch := len(a.data) / (m * k)
	if len(dst.shape) != len(a.shape) || dst.shape[len(dst.shape)-2] != m ||
		dst.shape[len(dst.shape)-1] != n || len(dst.data) != batch*m*n {
		panic(fmt.Sprintf("tensor: BatchedMatMulInto dst %v = %v × %v", dst.shape, a.shape, b.shape))
	}
	ParallelFor(batch, func(i int) {
		matmulRange(dst.data[i*m*n:(i+1)*m*n], a.data[i*m*k:(i+1)*m*k], b.data, 0, m, k, n)
	})
}

// BatchedMatMulLeft multiplies b (m×k) by every trailing k×n matrix of a:
// out[i] = b × a[i]. Used for the left multiplication in Eq. 4/6.
func BatchedMatMulLeft(b, a *Tensor) *Tensor {
	if len(a.shape) < 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: BatchedMatMulLeft requires [m,k] × [...,k,n], got %v × %v", b.shape, a.shape))
	}
	outShape := cloneInts(a.shape)
	outShape[len(outShape)-2] = b.shape[0]
	c := New(outShape...)
	BatchedMatMulLeftInto(c, b, a)
	return c
}

// BatchedMatMulLeftInto computes dst = BatchedMatMulLeft(b, a), reusing
// dst's storage: dst[i] = b × a[i]. dst must have a's shape with the
// second-to-last dimension replaced by b's row count.
func BatchedMatMulLeftInto(dst, b, a *Tensor) {
	if len(a.shape) < 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: BatchedMatMulLeftInto requires [m,k] × [...,k,n], got %v × %v", b.shape, a.shape))
	}
	k := a.shape[len(a.shape)-2]
	n := a.shape[len(a.shape)-1]
	m := b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: BatchedMatMulLeftInto inner dimension mismatch %v × %v", b.shape, a.shape))
	}
	batch := len(a.data) / (k * n)
	if len(dst.shape) != len(a.shape) || dst.shape[len(dst.shape)-2] != m ||
		dst.shape[len(dst.shape)-1] != n || len(dst.data) != batch*m*n {
		panic(fmt.Sprintf("tensor: BatchedMatMulLeftInto dst %v = %v × %v", dst.shape, b.shape, a.shape))
	}
	ParallelFor(batch, func(i int) {
		matmulRange(dst.data[i*m*n:(i+1)*m*n], b.data, a.data[i*k*n:(i+1)*k*n], 0, m, k, n)
	})
}
