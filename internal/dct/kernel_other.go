//go:build !amd64 || purego

package dct

func fwdBand8AVX2(dst *float32, dstStride int, src *float32, srcStride int, nblks, cf int, tab *float32, mask *int32) {
	panic("dct: no simd kernels")
}

func invRowsAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, nblks, cf int, cols *float32) {
	panic("dct: no simd kernels")
}

func fwdColAVX2(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32) {
	panic("dct: no simd kernels")
}

func invColAVX2(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32) {
	panic("dct: no simd kernels")
}
