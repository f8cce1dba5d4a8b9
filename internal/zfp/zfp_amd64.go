//go:build amd64 && !purego

package zfp

// zfpGatherAVX2 transposes 16 negabinary coefficients into 32 bit-plane
// masks (masks[p] bit k = bit p of u[k]).
//
//go:noescape
func zfpGatherAVX2(u *[16]uint32, masks *[32]uint16)

// zfpScatterAVX2 is the inverse transpose: rebuilds the 16 coefficients
// from per-plane masks.
//
//go:noescape
func zfpScatterAVX2(u *[16]uint32, masks *[32]uint16)
