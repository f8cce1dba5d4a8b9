//go:build !amd64 || purego

package zfp

func zfpGatherAVX2(u *[16]uint32, masks *[32]uint16) { panic("zfp: no simd kernels") }

func zfpScatterAVX2(u *[16]uint32, masks *[32]uint16) { panic("zfp: no simd kernels") }
