// Package faultinject maps the structural boundaries of ACCF v1/v3
// containers and v2 streams (staged 'S' records included) and
// generates corrupted variants of a well-formed input at each of them.
//
// The parsers here are deliberately independent of internal/codec: they
// re-derive every offset from the wire layout documented in
// container.go and stream.go, so a harness built on this package
// cross-checks the real decoder against a second reading of the format
// rather than against itself. Inputs are trusted encoder output; the
// parsers error on anything that does not scan, which in a test means
// the encoder and this package disagree about the layout.
package faultinject

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// Region is one named structural field of a serialized stream:
// Data[Off:Off+Len]. A zero-length region marks a boundary (such as
// end-of-stream) where bytes can be inserted but none exist to mutate.
type Region struct {
	Name string
	Off  int
	Len  int
}

// Mutant is one corrupted variant of an input.
type Mutant struct {
	// Desc is "<region>/<operation>", e.g. "rec0.crc/flip-lo-first".
	Desc string
	Data []byte
}

// Mutate generates the systematic corruption set for one region: bit
// flips at both ends, overwrites with 0x00 and 0xFF, truncation at and
// inside the region, duplication, deletion, and (for zero-length
// boundary regions) garbage insertion. Mutations that reproduce the
// original bytes (for example zeroing an already-zero field) are
// dropped, so every returned Mutant differs from data.
func Mutate(data []byte, r Region) []Mutant {
	var out []Mutant
	add := func(op string, m []byte) {
		if bytes.Equal(m, data) {
			return
		}
		out = append(out, Mutant{Desc: r.Name + "/" + op, Data: m})
	}
	clone := func() []byte { return append([]byte(nil), data...) }

	if r.Len == 0 {
		garbage := append(clone()[:r.Off:r.Off], 0xA5, 0x5A, 0xA5, 0x5A)
		add("insert-garbage", append(garbage, data[r.Off:]...))
		return out
	}

	m := clone()
	m[r.Off] ^= 0x01
	add("flip-lo-first", m)
	m = clone()
	m[r.Off+r.Len-1] ^= 0x80
	add("flip-hi-last", m)

	m = clone()
	for i := r.Off; i < r.Off+r.Len; i++ {
		m[i] = 0x00
	}
	add("zero", m)
	m = clone()
	for i := r.Off; i < r.Off+r.Len; i++ {
		m[i] = 0xFF
	}
	add("ones", m)

	add("truncate-before", clone()[:r.Off])
	add("truncate-inside", clone()[:r.Off+(r.Len+1)/2])

	dup := append([]byte(nil), data[:r.Off+r.Len]...)
	dup = append(dup, data[r.Off:r.Off+r.Len]...)
	add("duplicate", append(dup, data[r.Off+r.Len:]...))

	del := append([]byte(nil), data[:r.Off]...)
	add("delete", append(del, data[r.Off+r.Len:]...))
	return out
}

// cursor is a bounds-checked forward scanner over a byte slice.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) need(n int, what string) error {
	if c.off+n > len(c.data) {
		return fmt.Errorf("faultinject: truncated input: need %d bytes for %s at offset %d, have %d", n, what, c.off, len(c.data)-c.off)
	}
	return nil
}

func (c *cursor) u16(what string) (int, error) {
	if err := c.need(2, what); err != nil {
		return 0, err
	}
	v := int(binary.LittleEndian.Uint16(c.data[c.off:]))
	c.off += 2
	return v, nil
}

func (c *cursor) u32(what string) (int, error) {
	if err := c.need(4, what); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return int(v), nil
}

func (c *cursor) u8(what string) (int, error) {
	if err := c.need(1, what); err != nil {
		return 0, err
	}
	v := c.data[c.off]
	c.off++
	return int(v), nil
}

// uvarint reads an unsigned varint, returning its value and encoded
// width in bytes.
func (c *cursor) uvarint(what string) (int, int, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("faultinject: bad uvarint for %s at offset %d", what, c.off)
	}
	c.off += n
	return int(v), n, nil
}

// region emits a region covering the n bytes before the cursor.
func region(name string, end, n int) Region {
	return Region{Name: name, Off: end - n, Len: n}
}

// planeRegions scans the shared plane-framed payload layout
// (u32 count, u32×count length table, concatenated plane payloads)
// that all four codec families embed, emitting one region per field
// and per plane payload.
func planeRegions(c *cursor, prefix string) ([]Region, error) {
	planes, err := c.u32(prefix + " plane count")
	if err != nil {
		return nil, err
	}
	regs := []Region{region(prefix+"plane-count", c.off, 4)}
	lens := make([]int, planes)
	for p := range lens {
		if lens[p], err = c.u32(prefix + " plane length"); err != nil {
			return nil, err
		}
	}
	if planes > 0 {
		regs = append(regs, region(prefix+"plane-table", c.off, 4*planes))
	}
	for p, n := range lens {
		if err := c.need(n, prefix+" plane payload"); err != nil {
			return nil, err
		}
		c.off += n
		if n > 0 {
			regs = append(regs, region(fmt.Sprintf("%splane%d", prefix, p), c.off, n))
		}
	}
	return regs, nil
}

// entropyBlockRegions scans the block sequence of an entropy-coded
// (staged) payload up to offset end, emitting one region per block
// header and per mode-specific body field. The layout is re-derived
// from internal/entropy's wire doc, independent of its parser: each
// block is u8 mode + uvarint rawLen, then
//
//	mode 0 raw  — rawLen literal bytes
//	mode 1 rle  — one symbol byte
//	mode 2 fse  — uvarint bodyLen; body = tableLog u8, nsym-1 u8,
//	              3·nsym table entries, bitstream
//	mode 3 huf  — uvarint bodyLen; body = 128-byte code-length table,
//	              6-byte jump table (3×u16le), 4 bitstreams
func entropyBlockRegions(c *cursor, prefix string, end int) ([]Region, error) {
	var regs []Region
	for blk := 0; c.off < end; blk++ {
		p := func(field string) string { return fmt.Sprintf("%sblk%d.%s", prefix, blk, field) }
		hdrStart := c.off
		mode, err := c.u8("entropy block mode")
		if err != nil {
			return nil, err
		}
		rawLen, _, err := c.uvarint("entropy block raw length")
		if err != nil {
			return nil, err
		}
		regs = append(regs, region(p("hdr"), c.off, c.off-hdrStart))
		switch mode {
		case 0: // raw: the body is the rawLen literal bytes
			if err := c.need(rawLen, "raw block body"); err != nil {
				return nil, err
			}
			c.off += rawLen
			if rawLen > 0 {
				regs = append(regs, region(p("raw"), c.off, rawLen))
			}
		case 1: // rle: one symbol byte
			if _, err := c.u8("rle symbol"); err != nil {
				return nil, err
			}
			regs = append(regs, region(p("sym"), c.off, 1))
		case 2: // fse
			bodyLen, n, err := c.uvarint("fse body length")
			if err != nil {
				return nil, err
			}
			regs = append(regs, region(p("bodylen"), c.off, n))
			bodyStart := c.off
			if err := c.need(bodyLen, "fse body"); err != nil {
				return nil, err
			}
			if bodyLen < 2 {
				return nil, fmt.Errorf("faultinject: fse body of %d bytes at offset %d", bodyLen, bodyStart)
			}
			tableLen := 2 + 3*(int(c.data[bodyStart+1])+1)
			if tableLen > bodyLen {
				return nil, fmt.Errorf("faultinject: fse table of %d bytes overruns %d-byte body at offset %d", tableLen, bodyLen, bodyStart)
			}
			regs = append(regs, Region{Name: p("fse-table"), Off: bodyStart, Len: tableLen})
			if bodyLen > tableLen {
				regs = append(regs, Region{Name: p("fse-stream"), Off: bodyStart + tableLen, Len: bodyLen - tableLen})
			}
			c.off = bodyStart + bodyLen
		case 3: // huf
			bodyLen, n, err := c.uvarint("huf body length")
			if err != nil {
				return nil, err
			}
			regs = append(regs, region(p("bodylen"), c.off, n))
			bodyStart := c.off
			if err := c.need(bodyLen, "huf body"); err != nil {
				return nil, err
			}
			if bodyLen < 128+6 {
				return nil, fmt.Errorf("faultinject: huf body of %d bytes at offset %d, need at least %d", bodyLen, bodyStart, 128+6)
			}
			regs = append(regs,
				Region{Name: p("huf-lens"), Off: bodyStart, Len: 128},
				Region{Name: p("huf-jump"), Off: bodyStart + 128, Len: 6})
			streamsLen := bodyLen - 128 - 6
			j := [4]int{}
			for i := 0; i < 3; i++ {
				j[i] = int(binary.LittleEndian.Uint16(c.data[bodyStart+128+2*i:]))
			}
			j[3] = streamsLen - j[0] - j[1] - j[2]
			if j[3] < 0 {
				return nil, fmt.Errorf("faultinject: huf jump table claims %d stream bytes, body holds %d", j[0]+j[1]+j[2], streamsLen)
			}
			so := bodyStart + 128 + 6
			for i, sl := range j {
				if sl > 0 {
					regs = append(regs, Region{Name: p(fmt.Sprintf("huf-s%d", i)), Off: so, Len: sl})
				}
				so += sl
			}
			c.off = bodyStart + bodyLen
		default:
			return nil, fmt.Errorf("faultinject: unknown entropy block mode %d at offset %d", mode, hdrStart)
		}
		if c.off > end {
			return nil, fmt.Errorf("faultinject: entropy block %d overruns the payload by %d bytes", blk, c.off-end)
		}
	}
	return regs, nil
}

// specStaged reports whether a spec string carries a stage suffix
// ("base+stage"). Re-derived independently of internal/codec: a '+'
// separates the stage only when followed by an ASCII letter, so float
// option values such as "sz:eb=1e+3" do not count.
func specStaged(spec string) bool {
	for i := 0; i < len(spec)-1; i++ {
		next := spec[i+1]
		if spec[i] == '+' && (next >= 'a' && next <= 'z' || next >= 'A' && next <= 'Z') {
			return true
		}
	}
	return false
}

// payloadRegions scans a codec payload (the family-specific prefix plus
// the shared plane framing) given the spec string's family. Staged
// payloads keep one umbrella region covering the whole entropy-coded
// byte range, with finer per-block regions (headers, fse tables, huf
// code-length and jump tables, bitstreams) scanned underneath it.
func payloadRegions(c *cursor, prefix, spec string, payLen int) ([]Region, error) {
	if specStaged(spec) {
		payStart := c.off
		if err := c.need(payLen, prefix+" staged payload"); err != nil {
			return nil, err
		}
		if payLen == 0 {
			c.off += payLen
			return nil, nil
		}
		regs := []Region{{Name: prefix + "staged", Off: payStart, Len: payLen}}
		bregs, err := entropyBlockRegions(c, prefix, payStart+payLen)
		if err != nil {
			return nil, err
		}
		if c.off != payStart+payLen {
			return nil, fmt.Errorf("faultinject: entropy block scan consumed %d bytes, payload holds %d", c.off-payStart, payLen)
		}
		return append(regs, bregs...), nil
	}
	family, _, _ := strings.Cut(spec, ":")
	var regs []Region
	switch family {
	case "dctc", "zfp":
		mode, err := c.u8(prefix + " mode byte")
		if err != nil {
			return nil, err
		}
		regs = append(regs, region(prefix+"mode", c.off, 1))
		if mode == 1 { // flat packing: plane edge + element count follow
			if _, err := c.u32(prefix + " plane edge"); err != nil {
				return nil, err
			}
			regs = append(regs, region(prefix+"plane-edge", c.off, 4))
			if _, err := c.u32(prefix + " element count"); err != nil {
				return nil, err
			}
			regs = append(regs, region(prefix+"elems", c.off, 4))
		}
	case "sz":
		if _, err := c.u8(prefix + " mode byte"); err != nil {
			return nil, err
		}
		regs = append(regs, region(prefix+"mode", c.off, 1))
	case "jpegq":
		// No prefix: the plane framing starts immediately.
	case "lossless":
		// Raw byte-group lanes, no framing at all: one opaque region.
		if err := c.need(payLen, prefix+" lossless payload"); err != nil {
			return nil, err
		}
		c.off += payLen
		if payLen == 0 {
			return nil, nil
		}
		return []Region{region(prefix+"lanes", c.off, payLen)}, nil
	default:
		return nil, fmt.Errorf("faultinject: unknown codec family %q", family)
	}
	planes, err := planeRegions(c, prefix)
	if err != nil {
		return nil, err
	}
	return append(regs, planes...), nil
}

// V1Regions parses an ACCF v1 or v3 container (including the payload's
// codec-level framing; v3 staged payloads scan down to entropy block
// granularity) and returns every structural region, leaving a trailing
// zero-length "eof" boundary for insertion faults.
func V1Regions(data []byte) ([]Region, error) {
	c := &cursor{data: data}
	magic, err := c.u32("magic")
	if err != nil {
		return nil, err
	}
	if magic != 0x46434341 {
		return nil, fmt.Errorf("faultinject: bad v1 magic %#x", magic)
	}
	regs := []Region{region("magic", c.off, 4)}
	ver, err := c.u16("version")
	if err != nil {
		return nil, err
	}
	if ver != 1 && ver != 3 {
		return nil, fmt.Errorf("faultinject: container version %d, want 1 or 3", ver)
	}
	regs = append(regs, region("version", c.off, 2))
	specLen, err := c.u16("spec length")
	if err != nil {
		return nil, err
	}
	regs = append(regs, region("speclen", c.off, 2))
	if err := c.need(specLen, "spec"); err != nil {
		return nil, err
	}
	spec := string(c.data[c.off : c.off+specLen])
	c.off += specLen
	regs = append(regs, region("spec", c.off, specLen))
	rank, err := c.u8("rank")
	if err != nil {
		return nil, err
	}
	regs = append(regs, region("rank", c.off, 1))
	if err := c.need(4*rank, "dims"); err != nil {
		return nil, err
	}
	c.off += 4 * rank
	regs = append(regs, region("dims", c.off, 4*rank))
	payLen, err := c.u32("payload length")
	if err != nil {
		return nil, err
	}
	regs = append(regs, region("paylen", c.off, 4))
	if _, err := c.u32("payload CRC"); err != nil {
		return nil, err
	}
	regs = append(regs, region("paycrc", c.off, 4))

	if staged := specStaged(spec); staged != (ver == 3) {
		return nil, fmt.Errorf("faultinject: container version %d does not match spec %q", ver, spec)
	}

	payStart := c.off
	pregs, err := payloadRegions(c, "payload.", spec, payLen)
	if err != nil {
		return nil, err
	}
	regs = append(regs, pregs...)
	if c.off-payStart != payLen {
		return nil, fmt.Errorf("faultinject: payload scan consumed %d bytes, header claims %d", c.off-payStart, payLen)
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("faultinject: %d trailing bytes after container", len(data)-c.off)
	}
	return append(regs, Region{Name: "eof", Off: len(data)}), nil
}

// indexFooterRegions scans the optional 'I' index footer (marker
// already consumed): u32 body length, body (u32 entry count, then
// per-record entries), u32 CRC, u32 footer size, u32 trailing magic.
// Each entry is one region; the fixed framing fields get their own.
func indexFooterRegions(c *cursor) ([]Region, error) {
	regs := []Region{region("footer.marker", c.off, 1)}
	bodyLen, err := c.u32("index body length")
	if err != nil {
		return nil, err
	}
	regs = append(regs, region("footer.len", c.off, 4))
	bodyStart := c.off
	count, err := c.u32("index entry count")
	if err != nil {
		return nil, err
	}
	regs = append(regs, region("footer.count", c.off, 4))
	for e := 0; e < count; e++ {
		entryStart := c.off
		// offset u64 + payload length u64 + marker u8
		if err := c.need(17, "index entry fixed fields"); err != nil {
			return nil, err
		}
		c.off += 17
		specLen, err := c.u16("index entry spec length")
		if err != nil {
			return nil, err
		}
		if err := c.need(specLen, "index entry spec"); err != nil {
			return nil, err
		}
		c.off += specLen
		rank, err := c.u8("index entry rank")
		if err != nil {
			return nil, err
		}
		if err := c.need(4*rank, "index entry dims"); err != nil {
			return nil, err
		}
		c.off += 4 * rank
		regs = append(regs, region(fmt.Sprintf("footer.entry%d", e), c.off, c.off-entryStart))
	}
	if c.off-bodyStart != bodyLen {
		return nil, fmt.Errorf("faultinject: index body scan consumed %d bytes, footer claims %d", c.off-bodyStart, bodyLen)
	}
	if _, err := c.u32("index CRC"); err != nil {
		return nil, err
	}
	regs = append(regs, region("footer.crc", c.off, 4))
	size, err := c.u32("index footer size")
	if err != nil {
		return nil, err
	}
	if size != bodyLen+17 {
		return nil, fmt.Errorf("faultinject: index footer size %d, want body %d + 17", size, bodyLen)
	}
	regs = append(regs, region("footer.size", c.off, 4))
	magic, err := c.u32("index magic")
	if err != nil {
		return nil, err
	}
	if magic != 0x58434341 {
		return nil, fmt.Errorf("faultinject: bad index magic %#x", magic)
	}
	regs = append(regs, region("footer.magic", c.off, 4))
	return regs, nil
}

// V2Regions parses an ACCF v2 stream and returns every structural
// region of the stream header, each record header, each payload
// chunk, and the optional index footer, ending with a zero-length
// "eof" boundary after the end marker.
func V2Regions(data []byte) ([]Region, error) {
	c := &cursor{data: data}
	magic, err := c.u32("magic")
	if err != nil {
		return nil, err
	}
	if magic != 0x46434341 {
		return nil, fmt.Errorf("faultinject: bad v2 magic %#x", magic)
	}
	regs := []Region{region("header.magic", c.off, 4)}
	ver, err := c.u16("version")
	if err != nil {
		return nil, err
	}
	if ver != 2 {
		return nil, fmt.Errorf("faultinject: stream version %d, want 2", ver)
	}
	regs = append(regs, region("header.version", c.off, 2))
	if _, err := c.u16("reserved"); err != nil {
		return nil, err
	}
	regs = append(regs, region("header.reserved", c.off, 2))

	sawFooter := false
	for rec := 0; ; rec++ {
		marker, err := c.u8("record marker")
		if err != nil {
			return nil, err
		}
		switch marker {
		case 0x45: // 'E'
			regs = append(regs, region("end.marker", c.off, 1))
			if c.off != len(data) {
				return nil, fmt.Errorf("faultinject: %d trailing bytes after end marker", len(data)-c.off)
			}
			return append(regs, Region{Name: "eof", Off: len(data)}), nil
		case 0x49: // 'I' index footer: last record before the end marker
			if sawFooter {
				return nil, fmt.Errorf("faultinject: duplicate index footer at offset %d", c.off-1)
			}
			fregs, err := indexFooterRegions(c)
			if err != nil {
				return nil, err
			}
			regs = append(regs, fregs...)
			sawFooter = true
			rec--
			continue
		case 0x54, 0x53: // 'T' plain, 'S' staged
			if sawFooter {
				return nil, fmt.Errorf("faultinject: tensor record after index footer at offset %d", c.off-1)
			}
		default:
			return nil, fmt.Errorf("faultinject: bad record marker %#x at offset %d", marker, c.off-1)
		}
		p := func(field string) string { return fmt.Sprintf("rec%d.%s", rec, field) }
		regs = append(regs, region(p("marker"), c.off, 1))
		specLen, err := c.u16("spec length")
		if err != nil {
			return nil, err
		}
		regs = append(regs, region(p("speclen"), c.off, 2))
		if err := c.need(specLen, "spec"); err != nil {
			return nil, err
		}
		spec := string(c.data[c.off : c.off+specLen])
		c.off += specLen
		regs = append(regs, region(p("spec"), c.off, specLen))
		if staged := specStaged(spec); staged != (marker == 0x53) {
			return nil, fmt.Errorf("faultinject: record marker %#x does not match spec %q", marker, spec)
		}
		rank, err := c.u8("rank")
		if err != nil {
			return nil, err
		}
		regs = append(regs, region(p("rank"), c.off, 1))
		if err := c.need(4*rank, "dims"); err != nil {
			return nil, err
		}
		c.off += 4 * rank
		regs = append(regs, region(p("dims"), c.off, 4*rank))
		payLen, err := c.u32("payload length")
		if err != nil {
			return nil, err
		}
		regs = append(regs, region(p("paylen"), c.off, 4))
		if _, err := c.u32("header CRC"); err != nil {
			return nil, err
		}
		regs = append(regs, region(p("crc"), c.off, 4))

		for chunk, left := 0, payLen; left > 0; chunk++ {
			q := func(field string) string { return fmt.Sprintf("rec%d.chunk%d.%s", rec, chunk, field) }
			clen, err := c.u32("chunk length")
			if err != nil {
				return nil, err
			}
			regs = append(regs, region(q("len"), c.off, 4))
			if clen == 0 || clen > left {
				return nil, fmt.Errorf("faultinject: chunk length %d with %d payload bytes left", clen, left)
			}
			if _, err := c.u32("chunk CRC"); err != nil {
				return nil, err
			}
			regs = append(regs, region(q("crc"), c.off, 4))
			if err := c.need(clen, "chunk data"); err != nil {
				return nil, err
			}
			c.off += clen
			regs = append(regs, region(q("data"), c.off, clen))
			left -= clen
		}
	}
}
