package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// The framed container makes every compressed stream self-describing:
// the header carries the codec spec and the original tensor shape, so
// Decompress needs no out-of-band configuration. Layout, all fields
// little-endian:
//
//	offset  size      field
//	0       4         magic "ACCF"
//	4       2         format version (currently 1)
//	6       2         spec length L
//	8       L         codec spec string (UTF-8, e.g. "dctc:cf=4,sg")
//	8+L     1         tensor rank R
//	9+L     4·R       dims (uint32 each)
//	…       4         payload length P
//	…       4         CRC32 (IEEE) of the payload
//	…       P         codec-specific payload
const (
	containerMagic   = 0x46434341 // "ACCF" on disk
	containerVersion = 1
	// containerVersionStaged marks a container whose spec carries a
	// stage ("family:…+stage"): the layout is identical to v1, but
	// pre-stage readers must fail on the version instead of handing a
	// staged payload to a family decoder. (Version 2 is the record
	// stream; see stream.go.) Unstaged specs keep writing version 1, so
	// their bytes — and the golden recordings pinning them — are
	// unchanged.
	containerVersionStaged = 3

	// maxSpecLen bounds the spec string a header may claim.
	maxSpecLen = 256
	// maxRank bounds the tensor rank a header may claim.
	maxRank = 8
	// maxDim bounds any single dimension.
	maxDim = 1 << 24
	// maxElems bounds the total element count (256 Mi float32 = 1 GiB).
	maxElems = 1 << 28
	// maxPayload bounds the payload size a header may claim.
	maxPayload = 1 << 30
)

// Header is the decoded container header.
type Header struct {
	Spec  string
	Shape []int

	// wireSize is the exact on-wire byte count of the frame this header
	// was parsed from (v1 container: header + payload; v2 record: header
	// only). The exact-length decode paths use it to reject trailing
	// garbage after a supposedly single container.
	wireSize int
}

// Elems returns the product of the header's dimensions.
func (h Header) Elems() int {
	n := 1
	for _, d := range h.Shape {
		n *= d
	}
	return n
}

// validateFrame checks the spec/shape/payload-length limits shared by
// the v1 container writer and the v2 stream record writer.
func validateFrame(spec string, shape []int, payloadLen int) error {
	if len(spec) == 0 || len(spec) > maxSpecLen {
		return fmt.Errorf("codec: spec length %d outside [1,%d]", len(spec), maxSpecLen)
	}
	if len(shape) == 0 || len(shape) > maxRank {
		return fmt.Errorf("codec: rank %d outside [1,%d]", len(shape), maxRank)
	}
	// The element product accumulates in uint64: each factor is ≤ 2²⁴ and
	// the running product ≤ 2²⁸, so the intermediate can reach 2⁵², which
	// a 32-bit int would wrap straight past the maxElems check.
	elems := uint64(1)
	for _, d := range shape {
		if d < 1 || d > maxDim {
			return fmt.Errorf("codec: dimension %d outside [1,%d]", d, maxDim)
		}
		elems *= uint64(d)
		if elems > maxElems {
			return fmt.Errorf("codec: shape %v exceeds %d elements", shape, maxElems)
		}
	}
	if payloadLen > maxPayload {
		return fmt.Errorf("codec: payload %d bytes exceeds limit %d", payloadLen, maxPayload)
	}
	return nil
}

// WriteContainer frames a payload under the given spec and shape. A
// "+fse" spec is refused with ErrBadSpec: that stage is decode-only.
func WriteContainer(w io.Writer, spec string, shape []int, payload []byte) (int64, error) {
	if _, stage := splitSpecStage(spec); stage == "fse" {
		return 0, errFSEWrite
	}
	if err := validateFrame(spec, shape, len(payload)); err != nil {
		return 0, err
	}
	version := uint16(containerVersion)
	if specHasStages(spec) {
		version = containerVersionStaged
	}
	buf := make([]byte, 0, 16+len(spec)+4*len(shape)+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, containerMagic)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(spec)))
	buf = append(buf, spec...)
	buf = append(buf, byte(len(shape)))
	for _, d := range shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadContainer parses one container from r, verifying magic, version,
// header plausibility, and the payload CRC.
func ReadContainer(r io.Reader) (Header, []byte, error) {
	br := bufio.NewReader(r)
	var hdr Header
	var fixed [8]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return hdr, nil, markIOTruncation(fmt.Errorf("codec: reading container header: %w", err))
	}
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != containerMagic {
		return hdr, nil, fmt.Errorf("codec: bad magic %#x (not an ACCF container)", m)
	}
	version := binary.LittleEndian.Uint16(fixed[4:])
	if version != containerVersion && version != containerVersionStaged {
		return hdr, nil, fmt.Errorf("codec: unsupported container version %d", version)
	}
	specLen := int(binary.LittleEndian.Uint16(fixed[6:]))
	if specLen == 0 || specLen > maxSpecLen {
		return hdr, nil, fmt.Errorf("codec: spec length %d outside [1,%d]", specLen, maxSpecLen)
	}
	spec := make([]byte, specLen)
	if _, err := io.ReadFull(br, spec); err != nil {
		return hdr, nil, markIOTruncation(fmt.Errorf("codec: reading spec: %w", err))
	}
	hdr.Spec = string(spec)
	// The version byte and the spec's stage must agree: a v1
	// frame smuggling a staged spec (or the reverse) is a forgery, not
	// a decodable container.
	if staged := specHasStages(hdr.Spec); staged != (version == containerVersionStaged) {
		return hdr, nil, fmt.Errorf("codec: container version %d does not match spec %q", version, hdr.Spec)
	}
	rank, err := br.ReadByte()
	if err != nil {
		return hdr, nil, markIOTruncation(fmt.Errorf("codec: reading rank: %w", err))
	}
	if rank == 0 || int(rank) > maxRank {
		return hdr, nil, fmt.Errorf("codec: rank %d outside [1,%d]", rank, maxRank)
	}
	dims := make([]byte, 4*int(rank))
	if _, err := io.ReadFull(br, dims); err != nil {
		return hdr, nil, markIOTruncation(fmt.Errorf("codec: reading dims: %w", err))
	}
	hdr.Shape = make([]int, rank)
	// uint64 accumulator for the same 32-bit wrap reason as validateFrame:
	// the intermediate product can reach 2⁵² before the bound check.
	elems := uint64(1)
	for i := range hdr.Shape {
		d := int(binary.LittleEndian.Uint32(dims[4*i:]))
		if d < 1 || d > maxDim {
			return hdr, nil, fmt.Errorf("codec: dimension %d outside [1,%d]", d, maxDim)
		}
		hdr.Shape[i] = d
		elems *= uint64(d)
		if elems > maxElems {
			return hdr, nil, fmt.Errorf("codec: shape %v exceeds %d elements", hdr.Shape, maxElems)
		}
	}
	var trailer [8]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return hdr, nil, markIOTruncation(fmt.Errorf("codec: reading payload header: %w", err))
	}
	// Validate the claimed length as uint32 before converting: on 32-bit
	// platforms int(uint32 ≥ 2³¹) wraps negative, which would slip past
	// a signed upper-bound check.
	payLen32 := binary.LittleEndian.Uint32(trailer[0:])
	wantCRC := binary.LittleEndian.Uint32(trailer[4:])
	if payLen32 > maxPayload {
		return hdr, nil, fmt.Errorf("codec: payload %d bytes exceeds limit %d", payLen32, maxPayload)
	}
	payLen := int(payLen32)
	// Copy incrementally rather than pre-allocating the claimed length,
	// so truncated streams fail before a large allocation.
	var payBuf bytes.Buffer
	if _, err := io.CopyN(&payBuf, br, int64(payLen)); err != nil {
		return hdr, nil, markIOTruncation(fmt.Errorf("codec: reading %d-byte payload: %w", payLen, err))
	}
	payload := payBuf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return hdr, nil, markErr(ErrCRC, fmt.Errorf("codec: payload CRC mismatch (stored %#x, computed %#x)", wantCRC, got))
	}
	hdr.wireSize = 17 + specLen + 4*int(rank) + payLen
	return hdr, payload, nil
}
