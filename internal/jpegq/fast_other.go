//go:build !amd64 || purego

package jpegq

func mm8AVX2(c, a, b *[64]float32) { panic("jpegq: no simd kernels") }

func levelShift8AVX2(dst *[64]float32, src *float32, stride int) { panic("jpegq: no simd kernels") }

func storeShift8AVX2(dst *float32, stride int, rec *[64]float32) { panic("jpegq: no simd kernels") }
