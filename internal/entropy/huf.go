package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/cpufeat"
)

// This file is the huff0-style multi-symbol fast path: a canonical
// length-limited Huffman coder whose blocks ride in the same framing as
// the fse coder (entropy.go) under mode 3, so raw, rle, fse, and huf
// blocks coexist in one stream and one decoder:
//
//	block := u8 mode=3, uvarint rawLen, uvarint bodyLen, body
//	body  :=
//	  128 bytes  code lengths, one nibble per symbol 0..255 (even
//	             symbol in the low nibble), 0 = absent, max length 11;
//	             the lengths must describe a *complete* canonical code
//	             (Kraft weights summing to exactly 2^11), so every
//	             decode-LUT probe lands on a defined entry
//	  3 × u16le  jump table: byte lengths of streams 0..2 (stream 3
//	             runs to the end of the body)
//	  4 streams  independent MSB-first bitstreams, each zero-padded to
//	             a byte; stream i encodes raw bytes
//	             [i·segLen, min((i+1)·segLen, rawLen)) with
//	             segLen = ceil(rawLen/4)
//
// Codes are canonical: lengths are assigned by the two-queue Huffman
// build (HuffmanDepths, canon.go) over (frequency, symbol)-sorted
// leaves, length-limited to 11 bits by the deterministic histogram
// repair in hufBuildLengths, and code values are assigned in (length,
// symbol) ascending order by CanonTable. The build and the canonical
// table are shared with internal/vle; the clamp and repair are huf's
// own. The whole construction is a pure function of the block's
// histogram — format-defining, shared with the reference oracle.
//
// Decoding uses an 11-bit multi-symbol LUT: each probe returns up to
// two symbols plus the total bit length consumed, and the four streams
// decode independently (the asm kernel interleaves them for ILP; the
// portable path runs them back to back and doubles as the oracle for
// the kernel).
//
// CompressHuf is the encoder entry point: per block it picks the
// cheapest of raw, rle, fse, and huf, comparing the exact huf
// table+payload size against a deterministic fse size estimate (see
// fseEstimateBody). planBlock makes that decision and sizes the chosen
// block exactly, so CompressHuf emits each block once, straight into
// dst, and HufLen sizes a stream without coding it. Decompress handles
// all four modes, so "+huf" streams need no decoder-side configuration.

const (
	// hufLutBits is the decode-LUT probe width; hufMaxLen (the code
	// length cap) must not exceed it so one probe always resolves at
	// least one symbol.
	hufLutBits = 11
	hufLutSize = 1 << hufLutBits
	hufMaxLen  = 11

	// hufTableBytes is the nibble-packed code-length table (256 symbols
	// × 4 bits); hufJumpBytes the 3 × u16le stream jump table.
	hufTableBytes = 128
	hufJumpBytes  = 6
	hufNumStreams = 4
)

// CompressHuf appends the entropy-coded form of src to dst and returns
// the extended slice. It frames src as independent ≤ 64 KiB blocks and
// per block picks the cheapest of raw, rle, fse, and the 4-stream
// canonical-Huffman (huf) representation. It never fails and never
// expands a payload by more than the per-block framing overhead.
// Reusing dst across calls makes the steady state allocation-free.
func CompressHuf(dst, src []byte) []byte {
	st := getScratch()
	for len(src) > 0 {
		block := src[:min(len(src), maxBlock)]
		p := st.planBlock(block)
		dst = st.appendBlock(dst, block, &p)
		src = src[len(block):]
	}
	putScratch(st)
	return dst
}

// HufLen returns len(CompressHuf(nil, src)) without coding src: it
// makes CompressHuf's per-block decision and adds up the length of
// each block it plans, emitting nothing. A huf block is sized from its
// code lengths and segment histograms, an fse block by the backward
// walk that sizes it for CompressHuf.
func HufLen(src []byte) int {
	st := getScratch()
	n := 0
	for len(src) > 0 {
		block := src[:min(len(src), maxBlock)]
		p := st.planBlock(block)
		n += p.framedLen(len(block))
		src = src[len(block):]
	}
	putScratch(st)
	return n
}

// blockPlan is how one block is coded: its mode and, for fse and huf,
// the body length and what emitting the body needs. planBlock makes
// the decision both CompressHuf and HufLen take; the scratch it ran on
// holds the tables the body is emitted from.
type blockPlan struct {
	mode    byte
	bodyLen int // fse and huf: the body's length after its uvarint

	// fse: the table's symbol count and log, and the backward walk's
	// final states.
	nsym, tableLog int
	v0, v1         uint32

	// huf: each stream's end offset within the stream section.
	ends [hufNumStreams]int
}

// framedLen returns the bytes the planned block takes in a stream.
func (p blockPlan) framedLen(rawLen int) int {
	n := 1 + uvarintLen(uint64(rawLen))
	switch p.mode {
	case modeRaw:
		return n + rawLen
	case modeRLE:
		return n + 1
	}
	return n + uvarintLen(uint64(p.bodyLen)) + p.bodyLen
}

// orRaw stores the block raw when the planned body does not beat the
// raw bytes.
func (p blockPlan) orRaw(rawLen int) blockPlan {
	if uvarintLen(uint64(p.bodyLen))+p.bodyLen >= rawLen {
		return blockPlan{mode: modeRaw}
	}
	return p
}

// planBlock chooses one ≤ maxBlock block's representation by measured
// (huf) or deterministically estimated (fse) table+payload size, then
// measures the chosen body exactly for the raw fallback.
func (st *scratch) planBlock(block []byte) blockPlan {
	nsym := st.histogram(block)
	if nsym == 1 {
		return blockPlan{mode: modeRLE}
	}
	if len(block) < minCompressBlock {
		return blockPlan{mode: modeRaw}
	}
	hufBody := st.hufBuildLengths(nsym)
	fseBody := st.fseEstimateBody(len(block), nsym)
	// Incompressible early out: when neither body beats storing the
	// block raw, skip the trial walk entirely — both backends' raw
	// fallbacks would fire anyway, and on near-uniform data (float32
	// mantissa lanes) the discarded fse walk is the dominant cost.
	// Like the fse-vs-huf comparison this rule runs on the estimates,
	// is format-defining, and is shared with the reference oracle.
	if hufBody >= len(block) && fseBody >= len(block) {
		return blockPlan{mode: modeRaw}
	}
	if fseBody < hufBody {
		return st.planFSE(block, nsym).orRaw(len(block))
	}
	return st.planHuf(nsym).orRaw(len(block))
}

// appendBlock emits block as p plans it, counting the block under the
// representation it chose. dst grows once, by the planned length plus
// the bit emitters' 8 bytes of slack.
func (st *scratch) appendBlock(dst, block []byte, p *blockPlan) []byte {
	dst = slices.Grow(dst, p.framedLen(len(block))+8)
	dst = appendBlockHeader(dst, p.mode, len(block))
	switch p.mode {
	case modeRaw:
		backendRaw.Inc()
		return append(dst, block...)
	case modeRLE:
		backendRLE.Inc()
		return append(dst, block[0])
	case modeFSE:
		backendFSE.Inc()
		return st.appendFSEBody(binary.AppendUvarint(dst, uint64(p.bodyLen)), p)
	default:
		backendHuf.Inc()
		return st.appendHufBody(binary.AppendUvarint(dst, uint64(p.bodyLen)), block, p)
	}
}

// hufBuildLengths fills st.hlen with the canonical length-limited code
// lengths for the current histogram and returns the huf body size those
// lengths imply (table + jump + payload, padding bounded). The whole
// derivation — frequency-sorted two-queue Huffman build, clamp to
// hufMaxLen, deterministic Kraft repair, monotone length reassignment —
// is format-defining and shared with the reference oracle. Requires
// nsym ≥ 2.
func (s *scratch) hufBuildLengths(nsym int) int {
	// Leaves sorted by (frequency, symbol) ascending, as hist<<8|sym.
	// Block length caps at 1<<16 and nsym ≥ 2, so every frequency fits
	// in 16 bits: a stable two-pass radix sort on its low then its high
	// byte, over the ascending symbol list, gives exactly that order.
	var lo, hi [256]int32
	for i := 0; i < nsym; i++ {
		f := s.hist[s.syms[i]]
		lo[byte(f)]++
		hi[byte(f>>8)]++
	}
	var sumLo, sumHi int32
	for b := range lo {
		lo[b], sumLo = sumLo, sumLo+lo[b]
		hi[b], sumHi = sumHi, sumHi+hi[b]
	}
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		f := s.hist[sym]
		s.hsort[lo[byte(f)]] = uint32(f)<<8 | uint32(sym)
		lo[byte(f)]++
	}
	for _, k := range s.hsort[:nsym] {
		b := byte(k >> 16)
		s.hkeys[hi[b]] = k
		hi[b]++
	}

	for i := 0; i < nsym; i++ {
		s.hw[i] = int64(s.hkeys[i] >> 8)
	}
	HuffmanDepths(nsym, s.hw[:], s.hdepth[:])

	// Clamp depths to hufMaxLen and repair the length histogram until
	// the Kraft weights sum exactly to the LUT size again: each step
	// turns the deepest available shorter leaf into an internal node
	// whose children are that leaf and one promoted max-length leaf,
	// reducing the integer Kraft sum by exactly 1.
	for l := range s.hcnt {
		s.hcnt[l] = 0
	}
	kraft := int32(0)
	for i := 0; i < nsym; i++ {
		d := int(s.hdepth[i])
		if d > hufMaxLen {
			d = hufMaxLen
		}
		s.hcnt[d]++
		kraft += 1 << (hufMaxLen - d)
	}
	for debt := kraft - hufLutSize; debt > 0; debt-- {
		b := hufMaxLen - 1
		for s.hcnt[b] == 0 {
			b--
		}
		s.hcnt[b]--
		s.hcnt[b+1] += 2
		s.hcnt[hufMaxLen]--
	}

	// Reassign lengths monotonically: walking the repaired histogram
	// from the longest length down hands the longest codes to the
	// least frequent symbols (the sorted key order).
	for i := range s.hlen {
		s.hlen[i] = 0
	}
	idx := 0
	for l := hufMaxLen; l >= 1; l-- {
		for c := s.hcnt[l]; c > 0; c-- {
			s.hlen[byte(s.hkeys[idx])] = uint8(l)
			idx++
		}
	}

	payloadBits := int64(0)
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		payloadBits += int64(s.hist[sym]) * int64(s.hlen[sym])
	}
	// +3: the 4 per-stream byte paddings cost at most 28 bits beyond
	// the rounded total.
	return hufTableBytes + hufJumpBytes + int((payloadBits+7)/8) + 3
}

// fseEstimateBody returns a deterministic estimate of the fse body size
// for the current histogram, without running the encoder: per symbol
// with normalized count f, a step emits mb = tableLog-floor(log2 f)
// bits from states at or above f<<mb and mb-1 below it, so averaging
// over the state range gives the expected payload exactly up to state
// path effects. Used only for backend selection, so the (format-
// defining) rule is "estimate, not measurement" — shared with the
// oracle.
func (s *scratch) fseEstimateBody(blockLen, nsym int) int {
	tableLog := tableLogFor(blockLen, nsym)
	size := int32(1) << tableLog
	s.normalize(blockLen, nsym, tableLog)
	var num int64
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		f := uint32(s.norm[sym])
		mb := uint32(tableLog) - uint32(bits.Len32(f)-1)
		below := int64(f)<<mb - int64(size) // states emitting mb-1 bits
		num += int64(s.hist[sym]) * (int64(mb)*int64(size) - below)
	}
	estBits := (num + int64(size) - 1) / int64(size)
	return 2 + 3*nsym + int((2*int64(tableLog)+estBits+7)/8)
}

// planHuf sizes a huf block from the code lengths hufBuildLengths left
// in the scratch. Stream k codes segment k, so its bit length is
// Σ count·len over that segment's histogram: the difference of the
// sums over st.segHist[k] and st.segHist[k-1], the whole block's
// histogram standing in for the last. Each stream's byte length is
// exact without coding it.
func (st *scratch) planHuf(nsym int) blockPlan {
	p := blockPlan{mode: modeHUF}
	var prevBits int64
	end := 0
	for k := 0; k < hufNumStreams; k++ {
		h := &st.hist
		if k < len(st.segHist) {
			h = &st.segHist[k]
		}
		var bits int64
		for _, sym := range st.syms[:nsym] {
			bits += int64(h[sym]) * int64(st.hlen[sym])
		}
		end += int((bits - prevBits + 7) / 8)
		p.ends[k] = end
		prevBits = bits
	}
	p.bodyLen = hufTableBytes + hufJumpBytes + end
	return p
}

// appendHufBody appends the body planHuf sized: the nibble-packed code
// lengths, the jump table and the four streams, emitted straight into
// dst. dst must have room for the body plus the emitter's 8 bytes of
// slack (appendBlock grows it).
func (st *scratch) appendHufBody(dst, block []byte, p *blockPlan) []byte {
	for i := 0; i < hufTableBytes; i++ {
		dst = append(dst, st.hlen[2*i]|st.hlen[2*i+1]<<4)
	}
	prev := 0
	for s := 0; s < hufNumStreams-1; s++ {
		n := p.ends[s] - prev // ≤ 16384 symbols × 11 bits: fits u16
		dst = append(dst, byte(n), byte(n>>8))
		prev = p.ends[s]
	}
	start := len(dst)
	end := start + p.ends[hufNumStreams-1]
	st.hufEmitStreams(dst[start:end+8], block)
	return dst[:end]
}

// hufEmitStreams codes block's four streams, with the canonical codes
// of the lengths in st.hlen, back to back into out, which holds the
// streams planHuf sized plus 8 bytes of slack for the last store.
func (st *scratch) hufEmitStreams(out, block []byte) {
	_ = st.htab.Build(st.hlen[:]) // cannot fail: the lengths are a complete code
	segLen := (len(block) + 3) / 4
	pos := 0
	for s := 0; s < hufNumStreams; s++ {
		lo := s * segLen
		hi := min(lo+segLen, len(block))
		pos += hufEmitStream(out[pos:], block[lo:hi], &st.htab.Enc)
	}
}

// hufEmitStream codes seg into out as one MSB-first stream, zero-padded
// to a byte, and returns the stream's length. out must hold the
// stream's bytes plus 8 bytes of slack for the final store.
//
// acc holds the pending bits left-aligned: its top n bits, n ≤ 7
// between quads. Codes cap at 11 bits, so a quad adds at most 44 bits
// and one big-endian store after each quad flushes every whole byte;
// the partial byte then moves back to the top. Each code lands just
// below the one before it, which is the wire's bit order.
func hufEmitStream(out, seg []byte, enc *[canonMaxSyms]uint64) int {
	var acc uint64
	var n uint
	pos, i := 0, 0
	for ; i+4 <= len(seg); i += 4 {
		q := seg[i : i+4 : i+4]
		e := enc[q[0]]
		n += uint(e & 0xFF)
		acc |= e >> 8 << ((64 - n) & 63)
		e = enc[q[1]]
		n += uint(e & 0xFF)
		acc |= e >> 8 << ((64 - n) & 63)
		e = enc[q[2]]
		n += uint(e & 0xFF)
		acc |= e >> 8 << ((64 - n) & 63)
		e = enc[q[3]]
		n += uint(e & 0xFF)
		acc |= e >> 8 << ((64 - n) & 63)
		binary.BigEndian.PutUint64(out[pos:], acc)
		pos += int(n >> 3)
		acc <<= n & 56
		n &= 7
	}
	for _, v := range seg[i:] {
		e := enc[v]
		n += uint(e & 0xFF)
		acc |= e >> 8 << ((64 - n) & 63)
	}
	// The final store carries the last partial byte.
	binary.BigEndian.PutUint64(out[pos:], acc)
	return pos + int(n+7)>>3
}

// hufParseLens reads a block's nibble-packed code-length table into
// st.hlen, rejecting out-of-range lengths and any length set that is
// not a complete canonical code — the property the decode LUT's total
// coverage (and thus the loop's in-range guarantee) rests on.
func (s *scratch) hufParseLens(table []byte) error {
	kraft := int32(0)
	for i := 0; i < hufTableBytes; i++ {
		b := table[i]
		for half := 0; half < 2; half++ {
			l := b & 0xF
			b >>= 4
			s.hlen[2*i+half] = l
			if l > hufMaxLen {
				return fmt.Errorf("entropy: huf code length %d exceeds %d (symbol %d)", l, hufMaxLen, 2*i+half)
			}
			if l > 0 {
				kraft += 1 << (hufMaxLen - l)
			}
		}
	}
	if kraft != hufLutSize {
		return fmt.Errorf("entropy: huf code lengths are not a complete code (kraft sum %d, want %d)", kraft, hufLutSize)
	}
	return nil
}

// hufBuildLUT builds the multi-symbol decode LUT from st.hlen: the
// shared canonical table supplies the single-symbol LUT, and each probe
// looks up a second code inside the first one's remainder. Entry
// layout:
//
//	sym2<<24 | sym1<<16 | pair<<15 | totalBits<<8 | len1
func (s *scratch) hufBuildLUT() {
	_ = s.htab.Build(s.hlen[:]) // cannot fail: hufParseLens checked completeness
	lut1 := &s.htab.lut
	for i := 0; i < hufLutSize; i++ {
		e1 := uint32(lut1[i])
		l1 := e1 & 0xF
		entry := (e1>>4)<<16 | l1<<8 | l1
		if rem := hufLutBits - l1; rem > 0 {
			e2 := uint32(lut1[(i<<l1)&(hufLutSize-1)])
			if l2 := e2 & 0xF; l2 <= rem {
				entry = (e2>>4)<<24 | (e1>>4)<<16 | 1<<15 | (l1+l2)<<8 | l1
			}
		}
		s.hlut[i] = entry
	}
}

// decodeHufBody rebuilds rawLen bytes from one huf body: parse and
// validate the code-length table, split the four streams via the jump
// table, and decode each stream into its contiguous output segment.
func decodeHufBody(dst, body []byte, rawLen int, st *scratch) ([]byte, error) {
	if rawLen < minCompressBlock {
		return nil, fmt.Errorf("entropy: huf block claims %d raw bytes, encoder minimum is %d", rawLen, minCompressBlock)
	}
	if len(body) < hufTableBytes+hufJumpBytes {
		return nil, fmt.Errorf("entropy: huf body truncated (%d bytes)", len(body))
	}
	if err := st.hufParseLens(body[:hufTableBytes]); err != nil {
		return nil, err
	}
	st.hufBuildLUT()

	jump := body[hufTableBytes : hufTableBytes+hufJumpBytes]
	j0 := int(binary.LittleEndian.Uint16(jump[0:]))
	j1 := int(binary.LittleEndian.Uint16(jump[2:]))
	j2 := int(binary.LittleEndian.Uint16(jump[4:]))
	streamBytes := body[hufTableBytes+hufJumpBytes:]
	if j0+j1+j2 > len(streamBytes) {
		return nil, fmt.Errorf("entropy: huf jump table claims %d stream bytes, body holds %d", j0+j1+j2, len(streamBytes))
	}
	var srcs [hufNumStreams][]byte
	srcs[0] = streamBytes[:j0]
	srcs[1] = streamBytes[j0 : j0+j1]
	srcs[2] = streamBytes[j0+j1 : j0+j1+j2]
	srcs[3] = streamBytes[j0+j1+j2:]

	segLen := (rawLen + 3) / 4
	base := len(dst)
	dst = slices.Grow(dst, rawLen)[:base+rawLen]
	out := dst[base:]
	var outs [hufNumStreams][]byte
	outs[0] = out[:segLen]
	outs[1] = out[segLen : 2*segLen]
	outs[2] = out[2*segLen : 3*segLen]
	outs[3] = out[3*segLen:]

	// Bulk decode: the asm kernel runs the four streams interleaved (one
	// probe per stream per iteration, scalar over general-purpose
	// registers, so BMI2's flag-free shifts are all it needs) while
	// every stream has ≥ 8 readable source bytes and ≥ 2 writable
	// output bytes; the portable
	// per-stream loop finishes each stream from wherever the kernel
	// stopped, or does everything when the kernel is off or the block
	// is too short for it (counted apart: the kernel was on but skipped).
	var pos, oi [hufNumStreams]int
	var buf [hufNumStreams]uint64
	var cnt [hufNumStreams]uint
	switch {
	case !cpufeat.Have().BMI2:
		hufPortableCalls.Inc()
	case hufKernelViable(&srcs, &outs):
		hufVectorCalls.Inc()
		hufDecode4(st, &srcs, &outs, &pos, &oi, &buf, &cnt)
	default:
		hufKernelSkipped.Inc()
	}
	for s := 0; s < hufNumStreams; s++ {
		if !st.hufDecodeStream(outs[s], srcs[s], oi[s], pos[s], buf[s], cnt[s]) {
			return nil, fmt.Errorf("entropy: huf stream %d truncated mid-block", s)
		}
	}
	return dst, nil
}

// hufKernelViable reports whether every stream meets the asm kernel's
// entry bounds (8 readable bytes, 2 writable output slots).
func hufKernelViable(srcs, outs *[hufNumStreams][]byte) bool {
	for s := 0; s < hufNumStreams; s++ {
		if len(srcs[s]) < 8 || len(outs[s]) < 2 {
			return false
		}
	}
	return true
}

// hufDecodeStream decodes one stream into out, resuming from the
// position (output index, source byte position, bit buffer, bit count)
// the asm kernel left off at (all zero when starting fresh). The bulk
// loop keeps a left-aligned 64-bit buffer refilled 8 bytes at a time;
// the bit-serial tail reads the final probes with zero padding. It
// reports false when the stream consumed more bits than it holds —
// truncation, or a forged jump table.
func (st *scratch) hufDecodeStream(out []byte, stream []byte, i, pos int, buf uint64, cnt uint) bool {
	n := len(out)
	for i+2 <= n && pos+8 <= len(stream) {
		if cnt <= 56 {
			buf |= binary.BigEndian.Uint64(stream[pos:]) >> cnt
			k := (64 - cnt) >> 3
			pos += int(k)
			cnt += k << 3
		}
		e := st.hlut[buf>>(64-hufLutBits)]
		out[i] = byte(e >> 16)
		out[i+1] = byte(e >> 24)
		i += 1 + int(e>>15&1)
		tb := uint(e>>8) & 0x1F
		buf <<= tb
		cnt -= tb
	}
	bit := pos*8 - int(cnt)
	totalBits := 8 * len(stream)
	for i < n {
		v := 0
		for k := 0; k < hufLutBits; k++ {
			v <<= 1
			if p := bit + k; p < totalBits {
				v |= int(stream[p>>3]>>(7-uint(p&7))) & 1
			}
		}
		e := st.htab.lut[v]
		out[i] = byte(e >> 4)
		i++
		bit += int(e & 0xF)
	}
	return bit <= totalBits
}
