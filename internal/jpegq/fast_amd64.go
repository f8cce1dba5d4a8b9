//go:build amd64 && !purego

package jpegq

// mm8AVX2 is the dispatched 8×8 matmul: bit-identical to mm8 (same
// accumulation order, zero-row skip, no FMA), vectorized across the 8
// output columns.
//
//go:noescape
func mm8AVX2(c, a, b *[64]float32)

// levelShift8AVX2 loads one 8×8 block from a plane at the given row
// stride and applies the v*255-128 level shift, matching the portable
// fill loop bit-for-bit.
//
//go:noescape
func levelShift8AVX2(dst *[64]float32, src *float32, stride int)

// storeShift8AVX2 writes one reconstructed 8×8 block back to a plane at
// the given row stride, applying (rec+128)/255.
//
//go:noescape
func storeShift8AVX2(dst *float32, stride int, rec *[64]float32)
