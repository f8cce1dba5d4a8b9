//go:build !amd64 || purego

package vecops

func fillUint16AVX2(dst *uint16, n int, v uint16) { panic("vecops: no simd kernels") }

func fillBytesAVX2(dst *byte, n int, v byte) { panic("vecops: no simd kernels") }

func histMergeAVX2(h *int32, t *int32) { panic("vecops: no simd kernels") }

func splitLanesVec(dst []byte, src []float32, bg int) int { panic("vecops: no simd kernels") }

func joinLanesVec(dst []float32, src []byte, bg int) int { panic("vecops: no simd kernels") }
