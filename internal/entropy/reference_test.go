package entropy

import (
	"encoding/binary"
	"fmt"
)

// This file is the slow, obviously-correct bit-serial implementation of
// the package's block format, kept as the equivalence oracle for the
// table-driven fast path — the same idiom as core.CompressDense for the
// fast DCT kernel. refFSECompress produces byte-identical output to
// fseCompress, and ReferenceDecompress accepts exactly the inputs
// Decompress accepts (the two may differ only in error wording). The
// shared format-defining pieces — histogram, tableLogFor, spreadStep,
// the block framing constants — are reused directly; normalization
// runs refNormalize, which repairs the drift one count at a time; the
// state machine itself is re-derived from first principles: explicit
// symbol tables, per-bit I/O, linear searches instead of packed lookup
// tables.

// refFSECompress encodes src with the bit-serial oracle's fse-only
// block encoder. The output is byte-identical to fseCompress(nil, src).
func refFSECompress(src []byte) []byte {
	var dst []byte
	for len(src) > 0 {
		n := min(len(src), maxBlock)
		dst = refCompressBlock(dst, src[:n])
		src = src[n:]
	}
	return dst
}

// refTable is the oracle's explicit view of one normalized table: the
// spread symbol at every position and, per position, which occurrence
// x ∈ [freq, 2·freq) of that symbol it represents.
type refTable struct {
	size int
	tsym []uint8
	occ  []int // occ[p] = freq(tsym[p]) + (# earlier positions of tsym[p])
	// positions of each symbol in ascending table order; the (q-freq)-th
	// entry is the encode successor state for quotient q.
	posOf [256][]int
	freq  [256]int
}

// buildRefTable spreads the normalized counts exactly as the fast path
// does and derives the occurrence bookkeeping by plain counting.
func buildRefTable(st *scratch, nsym, tableLog int) *refTable {
	size := 1 << tableLog
	t := &refTable{size: size, tsym: make([]uint8, size), occ: make([]int, size)}
	step := spreadStep(size)
	pos := 0
	for i := 0; i < nsym; i++ {
		sym := st.syms[i]
		t.freq[sym] = int(st.norm[sym])
		for c := 0; c < int(st.norm[sym]); c++ {
			t.tsym[pos&(size-1)] = sym
			pos = (pos + step) & (size - 1)
		}
	}
	seen := make([]int, 256)
	for p := 0; p < size; p++ {
		sym := t.tsym[p]
		t.occ[p] = t.freq[sym] + seen[sym]
		t.posOf[sym] = append(t.posOf[sym], p)
		seen[sym]++
	}
	return t
}

// refNormalize is the oracle for scratch.normalize: the same floored
// counts, with the drift repaired one count per step — shrink the
// largest count above 1 while over target, grow the largest while
// under, ties to the lower symbol — rescanning every present symbol
// each step. It fills st.norm and st.cum.
func refNormalize(st *scratch, blockLen, nsym, tableLog int) {
	target := int32(1) << tableLog
	var sum int32
	for i := 0; i < nsym; i++ {
		n := int32(int64(st.hist[st.syms[i]]) * int64(target) / int64(blockLen))
		if n == 0 {
			n = 1
		}
		st.norm[st.syms[i]] = uint16(n)
		sum += n
	}
	for sum > target {
		best := -1
		var bestN uint16
		for i := 0; i < nsym; i++ {
			if n := st.norm[st.syms[i]]; n > 1 && (best < 0 || n > bestN) {
				best, bestN = i, n
			}
		}
		st.norm[st.syms[best]]--
		sum--
	}
	for sum < target {
		best := 0
		bestN := st.norm[st.syms[0]]
		for i := 1; i < nsym; i++ {
			if n := st.norm[st.syms[i]]; n > bestN {
				best, bestN = i, n
			}
		}
		st.norm[st.syms[best]]++
		sum++
	}
	st.cum[0] = 0
	for i := 0; i < nsym; i++ {
		st.cum[i+1] = st.cum[i] + int32(st.norm[st.syms[i]])
	}
}

// refBits collects single bits and packs them MSB-first, zero-padded to
// a byte — the Writer's layout, one bit at a time.
type refBits struct{ bits []uint8 }

func (b *refBits) writeBits(v uint64, width int) {
	for k := width - 1; k >= 0; k-- {
		b.bits = append(b.bits, uint8(v>>uint(k))&1)
	}
}

func (b *refBits) pack() []byte {
	out := make([]byte, (len(b.bits)+7)/8)
	for i, bit := range b.bits {
		out[i/8] |= bit << (7 - uint(i%8))
	}
	return out
}

func refCompressBlock(dst, block []byte) []byte {
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

	tableLog := tableLogFor(len(block), nsym)
	size := 1 << tableLog
	st.sized(size, len(block))
	refNormalize(st, len(block), nsym, tableLog)
	t := buildRefTable(st, nsym, tableLog)

	// Encode backwards, alternating two states by symbol-index parity.
	// Each step shifts the state down until the quotient q lands in
	// [freq, 2·freq), emits the shifted-out bits, and steps to the
	// table position representing (symbol, q).
	type chunk struct {
		v  uint64
		nb int
	}
	var chunks []chunk
	v0, v1 := size*2-1, size*2-1
	for i := len(block) - 1; i >= 0; i-- {
		sym := block[i]
		v := &v0
		if i&1 == 1 {
			v = &v1
		}
		f := t.freq[sym]
		nb := 0
		for *v>>uint(nb) >= 2*f {
			nb++
		}
		chunks = append(chunks, chunk{v: uint64(*v) & (1<<uint(nb) - 1), nb: nb})
		q := *v >> uint(nb)
		*v = size + t.posOf[sym][q-f]
	}

	var bw refBits
	bw.writeBits(uint64(v0-size), tableLog)
	bw.writeBits(uint64(v1-size), tableLog)
	for i := len(chunks) - 1; i >= 0; i-- {
		bw.writeBits(chunks[i].v, chunks[i].nb)
	}
	body := bw.pack()

	bodyLen := 2 + 3*nsym + len(body)
	headLen := 1 + uvarintLen(uint64(len(block))) + uvarintLen(uint64(bodyLen))
	if headLen+bodyLen >= 1+uvarintLen(uint64(len(block)))+len(block) {
		dst = appendBlockHeader(dst, modeRaw, len(block))
		return append(dst, block...)
	}

	dst = appendBlockHeader(dst, modeFSE, len(block))
	dst = binary.AppendUvarint(dst, uint64(bodyLen))
	dst = append(dst, byte(tableLog), byte(nsym-1))
	for i := 0; i < nsym; i++ {
		sym := st.syms[i]
		dst = append(dst, sym, byte(st.norm[sym]), byte(st.norm[sym]>>8))
	}
	return append(dst, body...)
}

// refReader reads bits MSB-first one at a time, reproducing the fast
// Reader's two styles: strict reads that fail on exhaustion, and padded
// reads that return zeros past the end and set a sticky overread flag.
type refReader struct {
	buf  []byte
	pos  int // bit position
	over bool
}

func (r *refReader) total() int { return 8 * len(r.buf) }

func (r *refReader) bitAt(p int) uint64 {
	if p >= r.total() {
		return 0
	}
	return uint64(r.buf[p/8]>>(7-uint(p%8))) & 1
}

// readStrict mirrors Reader.ReadBits: error without consuming when
// fewer than width bits remain.
func (r *refReader) readStrict(width int) (uint64, error) {
	if r.pos+width > r.total() {
		return 0, fmt.Errorf("entropy: oracle bitstream exhausted")
	}
	var v uint64
	for k := 0; k < width; k++ {
		v = v<<1 | r.bitAt(r.pos+k)
	}
	r.pos += width
	return v, nil
}

// readPadded mirrors Peek+Consume: zeros past the end, sticky overread.
func (r *refReader) readPadded(width int) uint64 {
	var v uint64
	for k := 0; k < width; k++ {
		v = v<<1 | r.bitAt(r.pos+k)
	}
	if r.pos+width > r.total() {
		r.over = true
		r.pos = r.total()
	} else {
		r.pos += width
	}
	return v
}

// ReferenceDecompress decodes src with the bit-serial oracle decoder.
// It accepts exactly the inputs Decompress accepts and produces the
// same bytes.
func ReferenceDecompress(src []byte) ([]byte, error) {
	var dst []byte
	for len(src) > 0 {
		var err error
		dst, src, err = refDecompressBlock(dst, src)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func refDecompressBlock(dst, src []byte) ([]byte, []byte, error) {
	mode, rawLen, src, err := blockHeader(src)
	if err != nil {
		return nil, nil, err
	}
	switch mode {
	case modeRaw:
		if len(src) < rawLen {
			return nil, nil, fmt.Errorf("entropy: oracle raw block truncated")
		}
		return append(dst, src[:rawLen]...), src[rawLen:], nil
	case modeRLE:
		if len(src) < 1 {
			return nil, nil, fmt.Errorf("entropy: oracle rle block missing symbol")
		}
		for i := 0; i < rawLen; i++ {
			dst = append(dst, src[0])
		}
		return dst, src[1:], nil
	case modeFSE:
		bodyLen, used := binary.Uvarint(src)
		if used <= 0 || bodyLen > uint64(len(src)-used) {
			return nil, nil, fmt.Errorf("entropy: oracle bad fse body length")
		}
		src = src[used:]
		dst, err := refDecodeFSEBody(dst, src[:bodyLen], rawLen)
		if err != nil {
			return nil, nil, err
		}
		return dst, src[bodyLen:], nil
	case modeHUF:
		bodyLen, used := binary.Uvarint(src)
		if used <= 0 || bodyLen > uint64(len(src)-used) {
			return nil, nil, fmt.Errorf("entropy: oracle bad huf body length")
		}
		src = src[used:]
		dst, err := refDecodeHufBody(dst, src[:bodyLen], rawLen)
		if err != nil {
			return nil, nil, err
		}
		return dst, src[bodyLen:], nil
	default:
		return nil, nil, fmt.Errorf("entropy: oracle unknown block mode %d", mode)
	}
}

// refParseTable applies the same validity rules as the fast parseTable
// and returns the oracle's explicit table.
func refParseTable(body []byte) (*refTable, int, []byte, error) {
	if len(body) < 2 {
		return nil, 0, nil, fmt.Errorf("entropy: oracle fse body truncated")
	}
	tableLog := int(body[0])
	nsym := int(body[1]) + 1
	if tableLog < minTableLog || tableLog > maxTableLog {
		return nil, 0, nil, fmt.Errorf("entropy: oracle table log %d out of range", tableLog)
	}
	if nsym < 2 {
		return nil, 0, nil, fmt.Errorf("entropy: oracle fse block with %d symbols", nsym)
	}
	if len(body) < 2+3*nsym {
		return nil, 0, nil, fmt.Errorf("entropy: oracle table description truncated")
	}
	size := 1 << tableLog
	st := new(scratch)
	sum, prev := 0, -1
	for i := 0; i < nsym; i++ {
		sym := body[2+3*i]
		if int(sym) <= prev {
			return nil, 0, nil, fmt.Errorf("entropy: oracle table symbols not ascending")
		}
		prev = int(sym)
		n := int(body[3+3*i]) | int(body[4+3*i])<<8
		if n == 0 || n > size {
			return nil, 0, nil, fmt.Errorf("entropy: oracle normalized count out of range")
		}
		st.syms[i] = sym
		st.norm[sym] = uint16(n)
		sum += n
	}
	if sum != size {
		return nil, 0, nil, fmt.Errorf("entropy: oracle counts sum %d != %d", sum, size)
	}
	return buildRefTable(st, nsym, tableLog), tableLog, body[2+3*nsym:], nil
}

func refDecodeFSEBody(dst, body []byte, rawLen int) ([]byte, error) {
	t, tableLog, stream, err := refParseTable(body)
	if err != nil {
		return nil, err
	}
	br := &refReader{buf: stream}
	s0, err := br.readStrict(tableLog)
	if err != nil {
		return nil, err
	}
	s1, err := br.readStrict(tableLog)
	if err != nil {
		return nil, err
	}
	p0, p1 := int(s0), int(s1)
	for i := 0; i < rawLen; i++ {
		p := &p0
		if i&1 == 1 {
			p = &p1
		}
		sym := t.tsym[*p]
		dst = append(dst, sym)
		// Invert one encode step: the state's occurrence index x shifts
		// back up into [size, 2·size) and refills its low bits from the
		// stream.
		x := t.occ[*p]
		nb := 0
		for x<<uint(nb) < t.size {
			nb++
		}
		*p = x<<uint(nb) - t.size + int(br.readPadded(nb))
	}
	if br.over {
		return nil, fmt.Errorf("entropy: oracle bitstream truncated mid-block")
	}
	return dst, nil
}
