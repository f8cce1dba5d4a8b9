// Package entropy is the shared table-driven entropy backend for the
// codec's entropy stage: per block, a tANS/FSE-style coder (histogram →
// normalized power-of-two table → two-state interleaved encode/decode)
// or a 4-stream canonical Huffman coder (huf.go) over byte payloads, in
// the style of klauspost/compress's FSE/huff0 but built on this
// repository's word-at-a-time internal/bitstream.
//
// The coder is byte-oriented and payload-agnostic: any codec family's
// serialized payload — quantized DCT coefficient bytes, zfp bit-planes,
// sz/jpegq Huffman streams, lossless byte-group lanes — can be appended
// through it as a container stage ("+huf" in a codec spec). Streams are
// framed as independent blocks so encode scratch stays bounded no
// matter how large the payload is:
//
//	stream := block*                      (until the source is exhausted)
//	block  := u8 mode, uvarint rawLen, body
//	  mode 0 (raw): body = rawLen verbatim bytes
//	  mode 1 (rle): body = 1 symbol byte, repeated rawLen times
//	  mode 2 (fse): body = uvarint bodyLen, then bodyLen bytes:
//	    u8  tableLog L (5..12)
//	    u8  nsym-1    (number of distinct symbols, ≥ 2)
//	    nsym × { u8 symbol, u16le normalized count }   (counts sum to 1<<L)
//	    bitstream, MSB-first, zero-padded to a byte:
//	      state0 (L bits), state1 (L bits), then per decoded symbol i the
//	      bits that step consumes (≤ L each)
//
// The fse bitstream is the standard ANS arrangement: the encoder walks
// the block backwards (symbol n-1 first), alternating two states by
// symbol-index parity, and the decoder walks forwards consuming bits in
// exactly the reverse order of emission — so the encoder records each
// step's bit chunk, sizing the stream as it goes, and replays them
// reversed through the bit emitter.
// Every step reads table-bounded state transitions, so a decoder fed a
// valid table never indexes out of range; truncation surfaces on the
// reader's sticky overread flag.
//
// CompressHuf is the one encoder. It picks the cheapest block mode per
// block, never fails, and never expands a payload by more than the
// per-block framing overhead: a block whose coded body would match or
// exceed the raw bytes is stored raw. HufLen makes the same per-block
// decision and returns the length CompressHuf would write, coding
// nothing. An fse-only encoder, the codec's
// retired "+fse" stage, wrote the same block format with modes 0–2
// only, so its streams decode here unchanged. Both directions run with
// zero heap allocations at steady state when the caller reuses dst
// buffers (scratch is pooled via sync.Pool).
//
// The package's tests hold the fast paths to slow, obviously correct
// bit-serial implementations of the same format — the same idiom as
// core.CompressDense for the fast DCT kernel.
package entropy

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/vecops"
)

const (
	modeRaw = 0
	modeRLE = 1
	modeFSE = 2
	modeHUF = 3

	// maxBlock bounds the raw bytes one block encodes; encode scratch is
	// proportional to it (2 bytes per symbol), decode scratch constant.
	maxBlock = 1 << 16

	// minTableLog..maxTableLog bound the normalized table size. 12 keeps
	// every per-step bit chunk (≤ tableLog bits) packable in a uint16
	// alongside its 4-bit width.
	minTableLog = 5
	maxTableLog = 12

	// minCompressBlock: blocks shorter than this are stored raw — the
	// table description alone would dwarf any coding gain.
	minCompressBlock = 32
)

// scratch carries every per-block working buffer so steady-state
// encode/decode allocates nothing.
type scratch struct {
	hist [256]int32
	norm [256]uint16
	syms [256]uint8 // present symbols, in ascending order
	cum  [257]int32 // cumulative normalized counts over present symbols

	// decode table: sym<<24 | nbBits<<16 | newStateBase (base < 1<<12).
	dtable []uint32
	// encode table: posTable[cum[s]+(x-freq)] = table position of x.
	ptable []uint16
	// per-symbol encode params, indexed by symbol value. cumStart[s] is
	// cum[rank(s)] - norm[s], so ptable[cumStart[s]+q] maps an encode
	// step's quotient q ∈ [norm, 2·norm) straight to its table position.
	maxBits   [256]uint8
	threshold [256]uint32
	cumStart  [256]int32

	// chunks records the encoder's per-step emissions (width<<12 | bits)
	// for the reversed replay.
	chunks []uint16

	// spread order scratch for table construction.
	tsym []uint8

	// huf scratch: canonical code-length construction (two-queue Huffman
	// over frequency-sorted keys), the canonical code table (encode
	// table and single-symbol LUT), and the multi-symbol decode LUT (see
	// huf.go).
	hkeys  [256]uint32 // hist<<8 | sym, sorted ascending for the build
	hsort  [256]uint32 // the keys between the two radix passes
	hw     [511]int64  // two-queue node weights (leaves + internals)
	hdepth [511]uint16
	hcnt   [hufMaxLen + 2]int32 // symbols per code length
	hlen   [256]uint8           // code length per symbol (0 = absent)
	htab   CanonTable
	hlut   [hufLutSize]uint32 // multi-symbol entries (see hufBuildLUT)
	// segHist[k] counts the block's huf segments 0..k (see histogram).
	segHist [hufNumStreams - 1][256]int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

func (s *scratch) sized(tableSize, blockLen int) {
	if cap(s.dtable) < tableSize {
		s.dtable = make([]uint32, tableSize)
		s.ptable = make([]uint16, tableSize)
		s.tsym = make([]uint8, tableSize)
	}
	s.dtable = s.dtable[:tableSize]
	s.ptable = s.ptable[:tableSize]
	s.tsym = s.tsym[:tableSize]
	if cap(s.chunks) < blockLen+2 {
		s.chunks = make([]uint16, blockLen+2)
	}
	s.chunks = s.chunks[:0]
}

// histogram fills s.hist and s.syms for block, returning the number of
// distinct symbols. It counts block one huf segment at a time (see
// huf.go), keeping the counts of the first one, two and three segments
// in s.segHist, from which planHuf sizes each stream.
func (s *scratch) histogram(block []byte) int {
	clear(s.hist[:])
	segLen := (len(block) + 3) / 4
	lo := 0
	for k := range s.segHist {
		hi := min(lo+segLen, len(block))
		vecops.Histogram256(&s.hist, block[lo:hi])
		s.segHist[k] = s.hist
		lo = hi
	}
	vecops.Histogram256(&s.hist, block[lo:])
	nsym := 0
	for v := 0; v < 256; v++ {
		if s.hist[v] > 0 {
			s.syms[nsym] = uint8(v)
			nsym++
		}
	}
	return nsym
}

// tableLogFor picks the table size for a block: large enough to give
// every present symbol a slot, small enough not to dwarf short blocks.
func tableLogFor(blockLen, nsym int) int {
	tl := maxTableLog - 1 // 11: the FSE default
	for tl > minTableLog && 1<<tl > blockLen {
		tl--
	}
	for 1<<tl < nsym {
		tl++
	}
	return tl
}

// normalize scales the histogram of the present symbols to sum exactly
// 1<<tableLog with every present count ≥ 1, filling s.norm and s.cum.
// Each count is floored to c·target/total (raised to 1 if zero), then a
// deterministic repair closes the drift. The table is format-defining:
// refNormalize (reference_test.go) is the one-step-at-a-time oracle
// this must match.
func (s *scratch) normalize(blockLen, nsym, tableLog int) {
	target := int32(1) << tableLog
	total := int64(blockLen)
	var sum int32
	for i := 0; i < nsym; i++ {
		c := int64(s.hist[s.syms[i]])
		n := int32(c * int64(target) / total)
		if n == 0 {
			n = 1
		}
		s.norm[s.syms[i]] = uint16(n)
		sum += n
	}
	// Over target (only when many counts were raised to 1): shrink the
	// largest count above 1 by one, ties to the lower symbol, until the
	// sum fits.
	for sum > target {
		best := -1
		var bestN uint16
		for i := 0; i < nsym; i++ {
			if n := s.norm[s.syms[i]]; n > 1 && (best < 0 || n > bestN) {
				best, bestN = i, n
			}
		}
		s.norm[s.syms[best]]--
		sum--
	}
	// Under target: the largest count, ties to the lower symbol, takes
	// the whole shortfall. Raising it keeps it the strict maximum, so
	// this is the same table as granting the counts one at a time.
	if sum < target {
		best := 0
		for i := 1; i < nsym; i++ {
			if s.norm[s.syms[i]] > s.norm[s.syms[best]] {
				best = i
			}
		}
		s.norm[s.syms[best]] += uint16(target - sum)
	}
	s.cum[0] = 0
	for i := 0; i < nsym; i++ {
		s.cum[i+1] = s.cum[i] + int32(s.norm[s.syms[i]])
	}
}

// spreadStep returns the position increment used to scatter symbol
// occurrences over the table; odd, so it cycles the whole power-of-two
// table exactly once.
func spreadStep(tableSize int) int {
	return (tableSize >> 1) + (tableSize >> 3) + 3
}

// buildTables constructs the decode table (position → symbol, bit
// count, next-state base) and the encode tables (per-symbol position
// lookup and bit-count thresholds) from the normalized counts.
func (s *scratch) buildTables(nsym, tableLog int) {
	size := 1 << tableLog
	step, mask := spreadStep(size), size-1

	// Scatter symbol occurrences over the table positions.
	pos := 0
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		for c := uint16(0); c < s.norm[sym]; c++ {
			s.tsym[pos&mask] = sym
			pos = (pos + step) & mask
		}
	}

	// Per-symbol occurrence counters walk x through [freq, 2·freq) in
	// table-position order; the decode entry at p inverts the encode
	// step that landed on x, and the encode table remembers p for x.
	var next [256]int32
	var symIndex [256]int32
	for i := 0; i < nsym; i++ {
		sym := s.syms[i]
		next[sym] = int32(s.norm[sym])
		symIndex[sym] = s.cum[i]
		f := uint32(s.norm[sym])
		mb := uint8(tableLog) - uint8(bits.Len32(f)-1)
		s.maxBits[sym] = mb
		s.threshold[sym] = f << mb
		s.cumStart[sym] = s.cum[i] - int32(f)
	}
	for p := 0; p < size; p++ {
		sym := s.tsym[p]
		x := next[sym]
		next[sym]++
		nb := uint32(tableLog) - uint32(bits.Len32(uint32(x))-1)
		base := uint32(x)<<nb - uint32(size)
		s.dtable[p] = uint32(sym)<<24 | nb<<16 | base
		s.ptable[symIndex[sym]+x-int32(s.norm[sym])] = uint16(p)
	}
}

// appendBlockHeader writes a block's mode byte and raw length.
func appendBlockHeader(dst []byte, mode byte, rawLen int) []byte {
	dst = append(dst, mode)
	return binary.AppendUvarint(dst, uint64(rawLen))
}

// planFSE runs the fse encoder's backward walk over one block
// (histogram already taken): it builds the tables, records each step's
// chunk for the reversed replay and sums the chunk widths, so the
// block's body length, and with it the raw-or-fse decision, is known
// before anything is emitted.
func (st *scratch) planFSE(block []byte, nsym int) blockPlan {
	tableLog := tableLogFor(len(block), nsym)
	size := 1 << tableLog
	st.sized(size, len(block))
	st.normalize(len(block), nsym, tableLog)
	st.buildTables(nsym, tableLog)

	// Walk the block backwards, alternating states by index parity, and
	// record each step's emitted chunk for the reversed replay.
	v0, v1 := uint32(2*size-1), uint32(2*size-1)
	nbits := 2 * tableLog
	for i := len(block) - 1; i >= 0; i-- {
		sym := block[i]
		v := &v0
		if i&1 == 1 {
			v = &v1
		}
		nb := uint32(st.maxBits[sym])
		if *v < st.threshold[sym] {
			nb--
		}
		nbits += int(nb)
		st.chunks = append(st.chunks, uint16(nb<<12)|uint16(*v&(1<<nb-1)))
		q := *v >> nb // ∈ [freq, 2·freq)
		*v = uint32(size) + uint32(st.ptable[st.cumStart[sym]+int32(q)])
	}
	return blockPlan{mode: modeFSE, bodyLen: 2 + 3*nsym + (nbits+7)/8,
		nsym: nsym, tableLog: tableLog, v0: v0, v1: v1}
}

// appendFSEBody appends the body planFSE sized: the table description,
// then the two final states and the recorded chunks replayed in
// reverse, written once through the bit emitter. dst must have room
// for the body plus the emitter's 8 bytes of slack (appendBlock grows
// it).
func (st *scratch) appendFSEBody(dst []byte, p *blockPlan) []byte {
	dst = append(dst, byte(p.tableLog), byte(p.nsym-1))
	for i := 0; i < p.nsym; i++ {
		sym := st.syms[i]
		dst = append(dst, sym, byte(st.norm[sym]), byte(st.norm[sym]>>8))
	}
	start := len(dst)
	end := start + p.bodyLen - 2 - 3*p.nsym
	w := bitstream.NewEmitter(dst[start : end+8])
	size := uint64(1) << p.tableLog
	w.Put(uint64(p.v0)-size, uint(p.tableLog))
	w.Put(uint64(p.v1)-size, uint(p.tableLog))
	for i := len(st.chunks) - 1; i >= 0; i-- {
		c := st.chunks[i]
		w.Put(uint64(c&0xFFF), uint(c>>12))
	}
	return dst[:end]
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decompress appends the decoded form of src to dst, returning the
// extended slice. Corrupt input — bad modes, impossible tables,
// truncated bitstreams, length overflows — returns an error; a
// successful decode is exactly the bytes the encoder consumed. Reusing
// dst across calls makes the steady state allocation-free.
func Decompress(dst, src []byte) ([]byte, error) {
	return DecompressCap(dst, src, maxInt)
}

const maxInt = int(^uint(0) >> 1)

// DecompressCap is Decompress with an output bound: decoding fails as
// soon as the blocks' claimed raw lengths would push the appended
// output past limit bytes. Untrusted streams can claim ~32k× expansion
// per byte, so callers that know a plausible decoded size (a container
// stage inverting a payload for a known tensor shape) should pass it
// here and fail before the allocation, not after.
//
// The output is sized once: a walk of the block headers adds up the
// raw lengths the blocks claim, and dst grows by that total before any
// block decodes, so a nil dst costs one allocation and a dst with that
// much spare capacity costs none. The walk stops ahead of a block whose
// claim would pass limit, so a stream claiming more than limit fails on
// the bound having allocated only the blocks that fit.
func DecompressCap(dst, src []byte, limit int) ([]byte, error) {
	st := getScratch()
	defer putScratch(st)
	dst = slices.Grow(dst, claimedLen(src, limit))
	produced := 0
	for len(src) > 0 {
		var err error
		var n int
		dst, src, n, err = decompressBlock(dst, src, st, limit-produced)
		if err != nil {
			return nil, err
		}
		produced += n
	}
	return dst, nil
}

// claimedLen walks src's block headers and returns the raw bytes they
// claim, stopping ahead of the first block it cannot parse or whose
// claim would pass limit. Raw and rle bodies are skipped by their known
// sizes, fse and huf bodies by their uvarint body length. It reports
// no errors: the decode loop rejects the block the walk stopped at with
// its own message, so on every stream that decodes the result is the
// decoded length.
func claimedLen(src []byte, limit int) int {
	total := 0
	for len(src) > 0 {
		mode, rawLen, rest, ok := parseBlockHeader(src)
		if !ok {
			return total
		}
		var body int
		switch mode {
		case modeRaw:
			body = rawLen
		case modeRLE:
			body = 1
		case modeFSE, modeHUF:
			n, used := binary.Uvarint(rest)
			if used <= 0 || n > uint64(len(rest)-used) {
				return total
			}
			body = used + int(n)
		default:
			return total
		}
		if body > len(rest) || rawLen > limit-total {
			return total
		}
		total += rawLen
		src = rest[body:]
	}
	return total
}

// parseBlockHeader splits off a block's mode and raw length; ok is
// false when the header is truncated or claims more than maxBlock.
func parseBlockHeader(src []byte) (mode byte, rawLen int, rest []byte, ok bool) {
	if len(src) < 2 {
		return 0, 0, nil, false
	}
	n, used := binary.Uvarint(src[1:])
	if used <= 0 || n > maxBlock {
		return 0, 0, nil, false
	}
	return src[0], int(n), src[1+used:], true
}

// blockHeader parses a block's mode, raw length, and remaining input.
func blockHeader(src []byte) (mode byte, rawLen int, rest []byte, err error) {
	if len(src) < 2 {
		return 0, 0, nil, fmt.Errorf("entropy: truncated block header (%d bytes)", len(src))
	}
	mode, rawLen, rest, ok := parseBlockHeader(src)
	if !ok {
		return 0, 0, nil, fmt.Errorf("entropy: bad block length")
	}
	return mode, rawLen, rest, nil
}

func decompressBlock(dst, src []byte, st *scratch, limit int) ([]byte, []byte, int, error) {
	mode, rawLen, src, err := blockHeader(src)
	if err != nil {
		return nil, nil, 0, err
	}
	if rawLen > limit {
		return nil, nil, 0, fmt.Errorf("entropy: block claims %d bytes, exceeding the caller's %d-byte output bound", rawLen, limit)
	}
	// DecompressCap sized dst from the block headers, so every append
	// and Grow below stays within its capacity.
	switch mode {
	case modeRaw:
		if len(src) < rawLen {
			return nil, nil, 0, fmt.Errorf("entropy: raw block truncated (%d of %d bytes)", len(src), rawLen)
		}
		return append(dst, src[:rawLen]...), src[rawLen:], rawLen, nil
	case modeRLE:
		if len(src) < 1 {
			return nil, nil, 0, fmt.Errorf("entropy: rle block missing symbol")
		}
		sym := src[0]
		base := len(dst)
		dst = slices.Grow(dst, rawLen)[:base+rawLen]
		vecops.FillBytes(dst[base:], sym)
		return dst, src[1:], rawLen, nil
	case modeFSE:
		bodyLen64, used := binary.Uvarint(src)
		if used <= 0 || bodyLen64 > uint64(len(src)-used) {
			return nil, nil, 0, fmt.Errorf("entropy: bad fse body length")
		}
		src = src[used:]
		body := src[:bodyLen64]
		dst, err := decodeFSEBody(dst, body, rawLen, st)
		if err != nil {
			return nil, nil, 0, err
		}
		return dst, src[bodyLen64:], rawLen, nil
	case modeHUF:
		bodyLen64, used := binary.Uvarint(src)
		if used <= 0 || bodyLen64 > uint64(len(src)-used) {
			return nil, nil, 0, fmt.Errorf("entropy: bad huf body length")
		}
		src = src[used:]
		body := src[:bodyLen64]
		dst, err := decodeHufBody(dst, body, rawLen, st)
		if err != nil {
			return nil, nil, 0, err
		}
		return dst, src[bodyLen64:], rawLen, nil
	default:
		return nil, nil, 0, fmt.Errorf("entropy: unknown block mode %d", mode)
	}
}

// parseTable reads an fse body's table description into the scratch,
// returning the table log and the bitstream remainder. It rejects
// out-of-range logs, duplicate or unsorted symbols, zero counts, and
// count sums that do not exactly fill the table — the properties the
// table-driven decode loop's in-range guarantees rest on.
func parseTable(body []byte, st *scratch) (tableLog int, stream []byte, err error) {
	if len(body) < 2 {
		return 0, nil, fmt.Errorf("entropy: fse body truncated")
	}
	tableLog = int(body[0])
	nsym := int(body[1]) + 1
	if tableLog < minTableLog || tableLog > maxTableLog {
		return 0, nil, fmt.Errorf("entropy: table log %d outside [%d,%d]", tableLog, minTableLog, maxTableLog)
	}
	if nsym < 2 {
		return 0, nil, fmt.Errorf("entropy: fse block with %d symbols", nsym)
	}
	if len(body) < 2+3*nsym {
		return 0, nil, fmt.Errorf("entropy: table description truncated")
	}
	size := 1 << tableLog
	var sum int32
	prev := -1
	for i := 0; i < nsym; i++ {
		sym := body[2+3*i]
		if int(sym) <= prev {
			return 0, nil, fmt.Errorf("entropy: table symbols not strictly ascending")
		}
		prev = int(sym)
		n := uint16(body[3+3*i]) | uint16(body[4+3*i])<<8
		if n == 0 || int(n) > size {
			return 0, nil, fmt.Errorf("entropy: normalized count %d outside [1,%d]", n, size)
		}
		st.syms[i] = sym
		st.norm[sym] = n
		sum += int32(n)
	}
	if sum != int32(size) {
		return 0, nil, fmt.Errorf("entropy: normalized counts sum %d, table holds %d", sum, size)
	}
	st.cum[0] = 0
	for i := 0; i < nsym; i++ {
		st.cum[i+1] = st.cum[i] + int32(st.norm[st.syms[i]])
	}
	st.sized(size, 0)
	st.buildTables(nsym, tableLog)
	return tableLog, body[2+3*nsym:], nil
}

// decodeFSEBody rebuilds rawLen bytes from one fse body using the fast
// table-driven two-state loop.
func decodeFSEBody(dst, body []byte, rawLen int, st *scratch) ([]byte, error) {
	tableLog, stream, err := parseTable(body, st)
	if err != nil {
		return nil, err
	}
	var br bitstream.Reader
	br.Reset(stream)
	s0, err := br.ReadBits(uint(tableLog))
	if err != nil {
		return nil, fmt.Errorf("entropy: bitstream truncated before initial states")
	}
	s1, err := br.ReadBits(uint(tableLog))
	if err != nil {
		return nil, fmt.Errorf("entropy: bitstream truncated before initial states")
	}
	p0, p1 := uint32(s0), uint32(s1)
	// Two-state interleave: even output positions decode on p0, odd on
	// p1. Table construction bounds every transition inside the table,
	// so the loop needs no per-step range checks; truncation is caught
	// by the reader's sticky overread flag after the loop.
	for i := 0; i < rawLen; i += 2 {
		e := st.dtable[p0]
		dst = append(dst, byte(e>>24))
		nb := uint(e>>16) & 0xFF
		p0 = e&0xFFFF + uint32(br.Peek(nb))
		br.Consume(nb)
		if i+1 == rawLen {
			break
		}
		e = st.dtable[p1]
		dst = append(dst, byte(e>>24))
		nb = uint(e>>16) & 0xFF
		p1 = e&0xFFFF + uint32(br.Peek(nb))
		br.Consume(nb)
	}
	if br.Overread() {
		return nil, fmt.Errorf("entropy: bitstream truncated mid-block")
	}
	return dst, nil
}
