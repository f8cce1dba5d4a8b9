//go:build amd64 && !purego

package vecops

import "unsafe"

//go:noescape
func fillUint16AVX2(dst *uint16, n int, v uint16)

//go:noescape
func fillBytesAVX2(dst *byte, n int, v byte)

// histMergeAVX2 adds the four 256-entry int32 sub-tables at t into h:
// h[v] += t[v] + t[256+v] + t[512+v] + t[768+v].
//
//go:noescape
func histMergeAVX2(h *int32, t *int32)

// The bg=4 lane kernels move n values, a multiple of laneChunk,
// between float32s and four byte lanes stride bytes apart: byte k of
// the first value sits at dst (or src) + k·stride.
//
//go:noescape
func splitLanes4AVX2(dst *byte, stride int, src *float32, n int)

//go:noescape
func joinLanes4AVX2(dst *float32, src *byte, stride int, n int)

// byteView is the little-endian byte image of a float32 slice — what
// every amd64 float32 is in memory.
func byteView(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// splitLanesVec moves the whole laneChunk steps of src into the lanes
// and returns how many values it moved; bg=1 is a copy of the byte
// view and moves them all. bg=2 has no kernel (see laneKernel).
func splitLanesVec(dst []byte, src []float32, bg int) int {
	if bg == 1 {
		copy(dst, byteView(src))
		return len(src)
	}
	m := len(src) &^ (laneChunk - 1)
	splitLanes4AVX2(&dst[0], len(src), &src[0], m)
	return m
}

// joinLanesVec is splitLanesVec's inverse.
func joinLanesVec(dst []float32, src []byte, bg int) int {
	if bg == 1 {
		copy(byteView(dst), src)
		return len(dst)
	}
	m := len(dst) &^ (laneChunk - 1)
	joinLanes4AVX2(&dst[0], &src[0], len(dst), m)
	return m
}
