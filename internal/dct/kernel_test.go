package dct

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// denseRoundTripOps builds the fused dense operands for one plane:
// compress Y = L·A·Lᵀ with L = M·T_L, decompress A' = G_L·Y·G_Lᵀ with
// G_L = BlockDiag(inv)·Mᵀ — exactly what core.Compressor compiles.
func denseOps(t *testing.T, tr, inv *tensor.Tensor, n, cf int) (lhs, dlhs *tensor.Tensor) {
	t.Helper()
	b := tr.Dim(0)
	mask := ChopMask(n, cf, b)
	lhs = tensor.MatMul(mask, BlockDiag(tr, n/b))
	dlhs = tensor.MatMul(BlockDiag(inv, n/b), mask.Transpose())
	return lhs, dlhs
}

func testPlane(n int, seed float32) *tensor.Tensor {
	x := tensor.New(n, n)
	d := x.Data()
	for i := range d {
		d[i] = seed + float32((int64(i)*2654435761)%1000)/1000 - 0.5
	}
	return x
}

// TestKernelMatchesDense proves the separable fast kernel reproduces the
// dense fused-matmul reference to ≤1e-5 max abs error for every chop
// factor of both transforms.
func TestKernelMatchesDense(t *testing.T) {
	cases := []struct {
		name string
		tr   *tensor.Tensor
		inv  *tensor.Tensor
		n    int
	}{
		{"dct8", Transform(8), Transform(8).Transpose(), 32},
		{"zfp4", ZFPBlockTransform(), mustInverse(t, ZFPBlockTransform()), 32},
	}
	for _, tc := range cases {
		b := tc.tr.Dim(0)
		for cf := 1; cf <= b; cf++ {
			tc, cf := tc, cf
			t.Run(fmt.Sprintf("%s/cf%d", tc.name, cf), func(t *testing.T) {
				k := NewKernel(tc.tr, tc.inv, cf)
				lhs, dlhs := denseOps(t, tc.tr, tc.inv, tc.n, cf)
				x := testPlane(tc.n, 0.1)
				m := k.M(tc.n)

				wantY := tensor.MatMul(tensor.MatMul(lhs, x), lhs.Transpose())
				gotY := tensor.New(m, m)
				scratch := make([]float32, k.ScratchLen(tc.n))
				k.Forward(gotY.Data(), m, x.Data(), tc.n, tc.n, scratch)
				if d := gotY.MaxAbsDiff(wantY); d > 1e-5 {
					t.Fatalf("forward diverges from dense: max abs diff %g", d)
				}

				wantA := tensor.MatMul(tensor.MatMul(dlhs, wantY), dlhs.Transpose())
				gotA := tensor.New(tc.n, tc.n)
				k.Inverse(gotA.Data(), tc.n, gotY.Data(), m, tc.n, scratch)
				if d := gotA.MaxAbsDiff(wantA); d > 1e-5 {
					t.Fatalf("inverse diverges from dense: max abs diff %g", d)
				}
			})
		}
	}
}

// TestKernelStridedChunk exercises the stride support partial
// serialization relies on: transforming an embedded chunk of a larger
// plane in place must agree with transforming the extracted chunk.
func TestKernelStridedChunk(t *testing.T) {
	const n, cn, cf = 32, 16, 3
	tr := Transform(8)
	k := NewKernel(tr, tr.Transpose(), cf)
	parent := testPlane(n, 0.7)
	mc := k.M(cn)
	scratch := make([]float32, k.ScratchLen(cn))

	for _, corner := range []struct{ r, q int }{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		base := corner.r*cn*n + corner.q*cn
		// Extract the chunk densely for the reference.
		chunk := tensor.New(cn, cn)
		for i := 0; i < cn; i++ {
			copy(chunk.Data()[i*cn:(i+1)*cn], parent.Data()[base+i*n:base+i*n+cn])
		}
		want := tensor.New(mc, mc)
		k.Forward(want.Data(), mc, chunk.Data(), cn, cn, scratch)

		got := tensor.New(mc, mc)
		k.Forward(got.Data(), mc, parent.Data()[base:], n, cn, scratch)
		if d := got.MaxAbsDiff(want); d > 0 {
			t.Fatalf("chunk (%d,%d): strided forward differs (max %g)", corner.r, corner.q, d)
		}

		// Inverse written back into a strided destination.
		back := tensor.New(n, n)
		k.Inverse(back.Data()[base:], n, got.Data(), mc, cn, scratch)
		backChunk := tensor.New(cn, cn)
		k.Inverse(backChunk.Data(), cn, got.Data(), mc, cn, scratch)
		for i := 0; i < cn; i++ {
			for j := 0; j < cn; j++ {
				if back.Data()[base+i*n+j] != backChunk.At2(i, j) {
					t.Fatalf("chunk (%d,%d): strided inverse differs at (%d,%d)", corner.r, corner.q, i, j)
				}
			}
		}
	}
}

// TestKernelForwardAllocs pins the kernel's no-allocation contract.
func TestKernelForwardAllocs(t *testing.T) {
	const n, cf = 64, 4
	tr := Transform(8)
	k := NewKernel(tr, tr.Transpose(), cf)
	x := testPlane(n, 0.3)
	m := k.M(n)
	dst := make([]float32, m*m)
	back := make([]float32, n*n)
	scratch := make([]float32, k.ScratchLen(n))
	allocs := testing.AllocsPerRun(20, func() {
		k.Forward(dst, m, x.Data(), n, n, scratch)
		k.Inverse(back, n, dst, m, n, scratch)
	})
	if allocs != 0 {
		t.Fatalf("kernel allocated %.1f objects per round trip, want 0", allocs)
	}
}

func mustInverse(t *testing.T, m *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	inv, err := tensor.Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	return inv
}

// kernelBenchCases are the shapes the kernel benchmarks time: the DCT's
// b = 8 at two chop factors on a small and a large plane, and the zfp4
// transform's b = 4.
var kernelBenchCases = []struct {
	name  string
	b, cf int
	n     int
}{
	{"b8/cf2/n64", 8, 2, 64},
	{"b8/cf4/n64", 8, 4, 64},
	{"b8/cf2/n512", 8, 2, 512},
	{"b8/cf4/n512", 8, 4, 512},
	{"b4/cf3/n64", 4, 3, 64},
}

func benchKernel(b *testing.B, bs, cf int) *Kernel {
	if bs == 4 {
		tr := ZFPBlockTransform()
		inv, err := tensor.Inverse(tr)
		if err != nil {
			b.Fatal(err)
		}
		return NewKernel(tr, inv, cf)
	}
	tr := Transform(bs)
	return NewKernel(tr, tr.Transpose(), cf)
}

// BenchmarkKernelForward times Kernel.Forward on one n×n plane; bytes
// are the plane's input floats.
func BenchmarkKernelForward(b *testing.B) {
	for _, bc := range kernelBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			k := benchKernel(b, bc.b, bc.cf)
			n, m := bc.n, k.M(bc.n)
			x := testPlane(n, 0.3)
			dst := make([]float32, m*m)
			scratch := make([]float32, k.ScratchLen(n))
			b.SetBytes(int64(4 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Forward(dst, m, x.Data(), n, n, scratch)
			}
		})
	}
}

// BenchmarkKernelInverse times Kernel.Inverse back to one n×n plane;
// bytes are the plane's output floats.
func BenchmarkKernelInverse(b *testing.B) {
	for _, bc := range kernelBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			k := benchKernel(b, bc.b, bc.cf)
			n, m := bc.n, k.M(bc.n)
			y := testPlane(m, 0.3)
			dst := make([]float32, n*n)
			scratch := make([]float32, k.ScratchLen(n))
			b.SetBytes(int64(4 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Inverse(dst, n, y.Data(), m, n, scratch)
			}
		})
	}
}
