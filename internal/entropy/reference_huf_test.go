package entropy

import (
	"encoding/binary"
	"fmt"
)

// Bit-serial oracle for the huf (mode 3) block format, mirroring
// reference_test.go's role for fse: ReferenceCompressHuf is
// byte-identical to CompressHuf, and the oracle decoder accepts exactly
// the inputs the fast path accepts. The format-defining derivations — code lengths
// (hufBuildLengths), the fse-vs-huf selection estimate
// (fseEstimateBody), canonical code assignment (CanonTable) — are
// reused directly, like normalize/tableLogFor on the fse side; the
// encode and decode state machines are re-derived bit-serially: codes
// written one bit at a time, decode by walking the canonical
// first-code ladder instead of the multi-symbol LUT.

// ReferenceCompressHuf encodes src with the bit-serial oracle encoder.
// The output is byte-identical to CompressHuf(nil, src).
func ReferenceCompressHuf(src []byte) []byte {
	var dst []byte
	for len(src) > 0 {
		n := len(src)
		if n > maxBlock {
			n = maxBlock
		}
		dst = refCompressHufBlock(dst, src[:n])
		src = src[n:]
	}
	return dst
}

func refCompressHufBlock(dst, block []byte) []byte {
	st := new(scratch)
	nsym := st.histogram(block)
	if nsym == 1 {
		dst = appendBlockHeader(dst, modeRLE, len(block))
		return append(dst, block[0])
	}
	if len(block) < minCompressBlock {
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}
	hufBody := st.hufBuildLengths(nsym)
	fseBody := st.fseEstimateBody(len(block), nsym)
	// Incompressible early out, mirrored from planBlock: the
	// estimate-based raw decision is part of the encoder spec.
	if hufBody >= len(block) && fseBody >= len(block) {
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}
	if fseBody < hufBody {
		// The fse encoder wins the size estimate; its whole block path
		// (including the raw fallback) is the existing oracle.
		return refCompressBlock(dst, block)
	}

	streams := refHufStreams(block, st.hlen[:])
	bodyLen := hufTableBytes + hufJumpBytes
	for _, stream := range streams {
		bodyLen += len(stream)
	}

	headLen := 1 + uvarintLen(uint64(len(block))) + uvarintLen(uint64(bodyLen))
	if headLen+bodyLen >= 1+uvarintLen(uint64(len(block)))+len(block) {
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}

	dst = appendBlockHeader(dst, modeHUF, len(block))
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	for i := 0; i < hufTableBytes; i++ {
		dst = append(dst, st.hlen[2*i]|st.hlen[2*i+1]<<4)
	}
	for s := 0; s < hufNumStreams-1; s++ {
		n := len(streams[s])
		dst = append(dst, byte(n), byte(n>>8))
	}
	for s := 0; s < hufNumStreams; s++ {
		dst = append(dst, streams[s]...)
	}
	return dst
}

// refHufStreams codes block's four streams bit-serially with the
// canonical codes of the lengths hlen.
func refHufStreams(block []byte, hlen []uint8) [hufNumStreams][]byte {
	var tab CanonTable
	_ = tab.Build(hlen) // cannot fail: the lengths are a complete code
	segLen := (len(block) + 3) / 4
	var streams [hufNumStreams][]byte
	for s := 0; s < hufNumStreams; s++ {
		lo := s * segLen
		hi := lo + segLen
		if hi > len(block) {
			hi = len(block)
		}
		var bw refBits
		for _, v := range block[lo:hi] {
			e := tab.Enc[v]
			bw.writeBits(e>>8, int(e&0xFF))
		}
		streams[s] = bw.pack()
	}
	return streams
}

// refDecodeHufBody decodes one huf body bit-serially: per output byte,
// extend a code one bit at a time down the canonical first-code ladder
// until it lands inside some length's code range. Reads past the end of
// a stream see zero padding, and the block is rejected if any stream's
// final bit position passed its actual length — the fast path's exact
// accept rule.
func refDecodeHufBody(dst, body []byte, rawLen int) ([]byte, error) {
	if rawLen < minCompressBlock {
		return nil, fmt.Errorf("entropy: oracle huf block claims %d raw bytes, below the encoder minimum", rawLen)
	}
	if len(body) < hufTableBytes+hufJumpBytes {
		return nil, fmt.Errorf("entropy: oracle huf body truncated")
	}

	// Parse the nibble table with the fast path's validity rules.
	var hlen [256]int
	var cnt [hufMaxLen + 1]int
	kraft := 0
	for i := 0; i < hufTableBytes; i++ {
		for half := 0; half < 2; half++ {
			l := int(body[i]>>(4*half)) & 0xF
			hlen[2*i+half] = l
			if l > hufMaxLen {
				return nil, fmt.Errorf("entropy: oracle huf code length %d out of range", l)
			}
			if l > 0 {
				cnt[l]++
				kraft += 1 << (hufMaxLen - l)
			}
		}
	}
	if kraft != hufLutSize {
		return nil, fmt.Errorf("entropy: oracle huf lengths not a complete code (kraft %d)", kraft)
	}

	// Canonical ladder: first[l] is the first code value of length l;
	// symsOf[l] the symbols of that length in ascending order, so code
	// value first[l]+k decodes to symsOf[l][k].
	var first [hufMaxLen + 2]int
	code := 0
	for l := 1; l <= hufMaxLen; l++ {
		first[l] = code
		code = (code + cnt[l]) << 1
	}
	var symsOf [hufMaxLen + 1][]int
	for sym := 0; sym < 256; sym++ {
		if l := hlen[sym]; l > 0 {
			symsOf[l] = append(symsOf[l], sym)
		}
	}

	jump := body[hufTableBytes : hufTableBytes+hufJumpBytes]
	j0 := int(binary.LittleEndian.Uint16(jump[0:]))
	j1 := int(binary.LittleEndian.Uint16(jump[2:]))
	j2 := int(binary.LittleEndian.Uint16(jump[4:]))
	streamBytes := body[hufTableBytes+hufJumpBytes:]
	if j0+j1+j2 > len(streamBytes) {
		return nil, fmt.Errorf("entropy: oracle huf jump table exceeds body")
	}
	bounds := [hufNumStreams + 1]int{0, j0, j0 + j1, j0 + j1 + j2, len(streamBytes)}

	segLen := (rawLen + 3) / 4
	out := make([]byte, rawLen)
	for s := 0; s < hufNumStreams; s++ {
		stream := streamBytes[bounds[s]:bounds[s+1]]
		lo := s * segLen
		hi := lo + segLen
		if hi > rawLen {
			hi = rawLen
		}
		r := &refReader{buf: stream}
		bit := 0
		for i := lo; i < hi; i++ {
			v, l := 0, 0
			for {
				v = v<<1 | int(r.bitAt(bit+l))
				l++
				if l > hufMaxLen {
					// Unreachable for a complete code; defensive.
					return nil, fmt.Errorf("entropy: oracle huf code overran max length")
				}
				if v-first[l] < cnt[l] {
					break
				}
			}
			out[i] = byte(symsOf[l][v-first[l]])
			bit += l
		}
		if bit > r.total() {
			return nil, fmt.Errorf("entropy: oracle huf stream %d truncated mid-block", s)
		}
	}
	return append(dst, out...), nil
}
