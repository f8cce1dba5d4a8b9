// Package vecops provides small dispatched vector primitives shared by
// the entropy coders: bulk fills used by the Huffman LUT construction
// (internal/vle, internal/entropy) and RLE expansion, plus the
// histogram accumulation feeding entropy table builds; and the
// byte-group lane transposes of the lossless codec family
// (SplitLanes, JoinLanes). Like the other
// kernel packages, the portable Go loop is both the fallback and the
// oracle: the vector paths produce identical memory contents, so
// callers see no behavioral difference beyond speed.
package vecops

import (
	"sync"

	"repro/internal/cpufeat"
)

// fillThreshold is the slice length below which the portable loop is
// used even when vector kernels are available — the call and
// broadcast overhead dominates tiny spans. Such fills count as neither
// path (see metrics.go).
const fillThreshold = 32

// FillUint16 sets every element of dst to v.
func FillUint16(dst []uint16, v uint16) {
	avx2 := cpufeat.Have().AVX2
	if avx2 && len(dst) >= fillThreshold {
		simdVectorCalls.Inc()
		fillUint16AVX2(&dst[0], len(dst), v)
		return
	}
	if !avx2 {
		simdPortableCalls.Inc()
	}
	for i := range dst {
		dst[i] = v
	}
}

// histThreshold is the source length below which the plain
// single-table loop beats the 4-sub-table scheme (zeroing 4 KiB of
// scratch dominates short inputs).
const histThreshold = 1024

// histPool recycles the 4-sub-table scratch so histogramming stays
// allocation-free at steady state.
var histPool = sync.Pool{New: func() any { return new([1024]int32) }}

// Histogram256 adds the byte counts of src into h. Long inputs count
// into four interleaved sub-tables — breaking the store-to-load
// dependency chain on repeated bytes, the classic FSE/huff0 layout —
// and merge them with the AVX2 column-add kernel when available.
func Histogram256(h *[256]int32, src []byte) {
	if len(src) < histThreshold {
		for _, b := range src {
			h[b]++
		}
		return
	}
	t := histPool.Get().(*[1024]int32)
	for i := range t {
		t[i] = 0
	}
	i := 0
	for ; i+4 <= len(src); i += 4 {
		t[src[i]]++
		t[256+int(src[i+1])]++
		t[512+int(src[i+2])]++
		t[768+int(src[i+3])]++
	}
	for ; i < len(src); i++ {
		t[src[i]]++
	}
	if cpufeat.Have().AVX2 {
		simdVectorCalls.Inc()
		histMergeAVX2(&h[0], &t[0])
	} else {
		simdPortableCalls.Inc()
		for v := 0; v < 256; v++ {
			h[v] += t[v] + t[256+v] + t[512+v] + t[768+v]
		}
	}
	histPool.Put(t)
}

// FillBytes sets every byte of dst to v.
func FillBytes(dst []byte, v byte) {
	avx2 := cpufeat.Have().AVX2
	if avx2 && len(dst) >= fillThreshold {
		simdVectorCalls.Inc()
		fillBytesAVX2(&dst[0], len(dst), v)
		return
	}
	if !avx2 {
		simdPortableCalls.Inc()
	}
	for i := range dst {
		dst[i] = v
	}
}
