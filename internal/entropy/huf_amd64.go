//go:build amd64 && !purego

package entropy

import "unsafe"

// huf4State is the register file of the 4-stream decode kernel. Field
// offsets are hard-coded in huf_amd64.s — keep them in sync. Pointers
// are raw cursors into the caller's slices: srcEnd[s]/dstEnd[s] are the
// last positions at which the kernel may still run an iteration for
// stream s (base+len−8 source bytes readable, base+len−2 outputs
// writable), giving the same loop bounds as the portable fast loop.
type huf4State struct {
	lut    unsafe.Pointer                // +0
	srcPtr [hufNumStreams]unsafe.Pointer // +8
	srcEnd [hufNumStreams]unsafe.Pointer // +40
	dstPtr [hufNumStreams]unsafe.Pointer // +72
	dstEnd [hufNumStreams]unsafe.Pointer // +104
	bitBuf [hufNumStreams]uint64         // +136
	bitCnt [hufNumStreams]uint64         // +168
}

// hufDecode4BMI2 runs the four streams interleaved — one LUT probe per
// stream per iteration — until any stream exhausts its kernel bounds,
// leaving the cursors and bit state where the portable loop resumes.
//
//go:noescape
func hufDecode4BMI2(st *huf4State)

// hufDecode4 adapts the slice-world decode state to the kernel's raw
// cursors and back. Callers guarantee every stream has ≥ 8 source
// bytes and ≥ 2 output slots (hufKernelViable), so the end cursors
// never underflow their slices.
func hufDecode4(st *scratch, srcs, outs *[hufNumStreams][]byte, pos, oi *[hufNumStreams]int, buf *[hufNumStreams]uint64, cnt *[hufNumStreams]uint) {
	var hs huf4State
	hs.lut = unsafe.Pointer(&st.hlut[0])
	for s := 0; s < hufNumStreams; s++ {
		sp := unsafe.Pointer(unsafe.SliceData(srcs[s]))
		hs.srcPtr[s] = sp
		hs.srcEnd[s] = unsafe.Add(sp, len(srcs[s])-8)
		dp := unsafe.Pointer(unsafe.SliceData(outs[s]))
		hs.dstPtr[s] = dp
		hs.dstEnd[s] = unsafe.Add(dp, len(outs[s])-2)
	}
	hufDecode4BMI2(&hs)
	for s := 0; s < hufNumStreams; s++ {
		pos[s] = int(uintptr(hs.srcPtr[s]) - uintptr(unsafe.Pointer(unsafe.SliceData(srcs[s]))))
		oi[s] = int(uintptr(hs.dstPtr[s]) - uintptr(unsafe.Pointer(unsafe.SliceData(outs[s]))))
		buf[s] = hs.bitBuf[s]
		cnt[s] = uint(hs.bitCnt[s])
	}
}
