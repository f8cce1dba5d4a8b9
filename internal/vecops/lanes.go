package vecops

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cpufeat"
)

// laneChunk is the element count one step of the lane kernels moves:
// 128 bytes of float32, four 32-byte vectors.
const laneChunk = 32

// laneKernel reports whether a call of n values at bg runs a vector
// kernel: bg=4 (the codec's default and checkpoint's layout) and bg=1
// (a copy) have one; bg=2 has none until a workload that uses it can
// measure one. On a vector host a call without a kernel, or shorter
// than one chunk, runs the portable loop and, like a short fill,
// counts as neither path.
func laneKernel(n, bg int) bool { return bg != 2 && n >= laneChunk }

// SplitLanes writes the little-endian bytes of src into dst as bg
// byte-group lanes, the layout ZipNN compresses: bg=4 puts byte k of
// every value into lane k (len(src) bytes each), bg=2 puts bytes 0–1
// of every value into the first half of dst and bytes 2–3 into the
// second, and bg=1 is the plain little-endian byte stream. len(dst)
// must be 4·len(src) and bg one of 1, 2, 4.
func SplitLanes(dst []byte, src []float32, bg int) {
	checkLanes(len(dst), len(src), bg)
	done := 0
	if !cpufeat.Have().AVX2 {
		simdPortableCalls.Inc()
	} else if laneKernel(len(src), bg) {
		simdVectorCalls.Inc()
		done = splitLanesVec(dst, src, bg)
	}
	splitLanesGo(dst, src, bg, done)
}

// JoinLanes is the inverse of SplitLanes: it rebuilds every value of
// dst bit for bit (NaN payloads included) from the bg byte-group lanes
// in src. len(src) must be 4·len(dst) and bg one of 1, 2, 4.
func JoinLanes(dst []float32, src []byte, bg int) {
	checkLanes(len(src), len(dst), bg)
	done := 0
	if !cpufeat.Have().AVX2 {
		simdPortableCalls.Inc()
	} else if laneKernel(len(dst), bg) {
		simdVectorCalls.Inc()
		done = joinLanesVec(dst, src, bg)
	}
	joinLanesGo(dst, src, bg, done)
}

// checkLanes panics on a call no validated caller makes: the codec
// checks bg when it parses a spec and the payload length against the
// shape before either function runs.
func checkLanes(nbytes, elems, bg int) {
	if (bg != 1 && bg != 2 && bg != 4) || nbytes != 4*elems {
		panic(fmt.Sprintf("vecops: %d lane bytes for %d values at bg=%d", nbytes, elems, bg))
	}
}

// splitLanesGo is the portable transpose and the oracle the kernels are
// tested against. It fills the lanes for values src[from:]; the vector
// path passes the count its kernel already moved.
func splitLanesGo(dst []byte, src []float32, bg, from int) {
	n := len(src)
	switch bg {
	case 4:
		l0, l1 := dst[from:n], dst[n+from:2*n]
		l2, l3 := dst[2*n+from:3*n], dst[3*n+from:4*n]
		for i, v := range src[from:] {
			bits := math.Float32bits(v)
			l0[i] = byte(bits)
			l1[i] = byte(bits >> 8)
			l2[i] = byte(bits >> 16)
			l3[i] = byte(bits >> 24)
		}
	case 2:
		l0, l1 := dst[2*from:2*n], dst[2*n+2*from:4*n]
		for i, v := range src[from:] {
			bits := math.Float32bits(v)
			l0[2*i] = byte(bits)
			l0[2*i+1] = byte(bits >> 8)
			l1[2*i] = byte(bits >> 16)
			l1[2*i+1] = byte(bits >> 24)
		}
	default: // bg=1
		out := dst[4*from:]
		for i, v := range src[from:] {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
	}
}

// joinLanesGo is the portable inverse transpose: every value is
// reassembled as a uint32 and stored once, for dst[from:].
func joinLanesGo(dst []float32, src []byte, bg, from int) {
	n := len(dst)
	out := dst[from:]
	switch bg {
	case 4:
		l0, l1 := src[from:n], src[n+from:2*n]
		l2, l3 := src[2*n+from:3*n], src[3*n+from:4*n]
		for i := range out {
			bits := uint32(l0[i]) | uint32(l1[i])<<8 | uint32(l2[i])<<16 | uint32(l3[i])<<24
			out[i] = math.Float32frombits(bits)
		}
	case 2:
		l0, l1 := src[2*from:2*n], src[2*n+2*from:4*n]
		for i := range out {
			bits := uint32(l0[2*i]) | uint32(l0[2*i+1])<<8 |
				uint32(l1[2*i])<<16 | uint32(l1[2*i+1])<<24
			out[i] = math.Float32frombits(bits)
		}
	default: // bg=1
		in := src[4*from:]
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
		}
	}
}
