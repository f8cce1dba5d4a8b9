//go:build !amd64 || purego

package vecops

// simdOn is constant-false without compiled kernels, so the dispatch
// branches (and the kernel stubs below) are eliminated at compile time.
const simdOn = false

// SIMDAvailable reports whether vectorized kernels are compiled in and
// usable on this CPU.
func SIMDAvailable() bool { return false }

// SetSIMD is the testing hook for forcing kernels on or off; without
// compiled kernels it is a no-op.
func SetSIMD(on bool) bool { return false }

func fillUint16AVX2(dst *uint16, n int, v uint16) { panic("vecops: no simd kernels") }

func fillBytesAVX2(dst *byte, n int, v byte) { panic("vecops: no simd kernels") }

func histMergeAVX2(h *int32, t *int32) { panic("vecops: no simd kernels") }

func splitLanesVec(dst []byte, src []float32, bg int) int { panic("vecops: no simd kernels") }

func joinLanesVec(dst []float32, src []byte, bg int) int { panic("vecops: no simd kernels") }
