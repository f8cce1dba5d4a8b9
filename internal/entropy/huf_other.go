//go:build !amd64 || purego

package entropy

func hufDecode4(st *scratch, srcs, outs *[hufNumStreams][]byte, pos, oi *[hufNumStreams]int, buf *[hufNumStreams]uint64, cnt *[hufNumStreams]uint) {
	panic("entropy: hufDecode4 called without SIMD support")
}
