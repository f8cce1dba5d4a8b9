//go:build !amd64 || purego

package entropy

// hufSIMD reports whether the 4-stream BMI2 huf decode kernel is
// available; on non-amd64 (or purego) builds it never is and the
// portable per-stream loop does all the work.
func hufSIMD() bool { return false }

// SetSIMD is a test hook matching the amd64 build; without a kernel it
// always leaves SIMD off and reports the previous (false) state.
func SetSIMD(on bool) bool { return false }

func hufDecode4(st *scratch, srcs, outs *[hufNumStreams][]byte, pos, oi *[hufNumStreams]int, buf *[hufNumStreams]uint64, cnt *[hufNumStreams]uint) {
	panic("entropy: hufDecode4 called without SIMD support")
}
