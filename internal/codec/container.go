package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"
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
//
// Offsets 6 through the payload length are the frame head, which v2
// stream records and index-footer entries carry too (see frameHead).
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
}

// Elems returns the product of the header's dimensions.
func (h Header) Elems() int {
	n := 1
	for _, d := range h.Shape {
		n *= d
	}
	return n
}

// frameHead is the header every ACCF frame carries — v1/v3 containers,
// v2 stream records and index-footer entries — after its own magic,
// version or marker:
//
//	u16 spec length L, L spec bytes, u8 rank R, R × u32 dims,
//	u32 payload length P (absent when lenAhead)
//
// An index entry carries its payload length as a u64 ahead of its
// marker instead, and sets lenAhead.
type frameHead struct {
	Header
	payLen uint64
	// staged is what the frame's version or marker says: that the spec
	// carries a stage. A head whose spec disagrees is a forgery.
	staged   bool
	lenAhead bool
}

// appendFrameHead appends h's frame head to dst; it is the one writer of
// the layout. The appended bytes are read back through readFrameHead, so
// a writer accepts exactly what every reader accepts, and a field too
// wide for its wire slot fails the comparison instead of wrapping.
func appendFrameHead(dst []byte, h frameHead) ([]byte, error) {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Spec)))
	dst = append(dst, h.Spec...)
	dst = append(dst, byte(len(h.Shape)))
	for _, d := range h.Shape {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	if !h.lenAhead {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(h.payLen))
	}
	var dims [maxRank]int
	back := h
	back.Shape = dims[:0]
	src := memPayload{dst[start:]}
	back, err := readFrameHead(src.next, back, nil)
	if err == nil && (back.Spec != h.Spec || !slices.Equal(back.Shape, h.Shape) || back.payLen != h.payLen || src.len() != 0) {
		err = fmt.Errorf("spec of %d bytes, rank %d or payload of %d bytes does not fit the frame head", len(h.Spec), len(h.Shape), h.payLen)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("codec: %w", err)
	}
	return dst, nil
}

// readFrameHead parses a frame head from next, which returns the next n
// bytes as a view valid until its next call, and checks it against the
// frame limits; it is the one reader of the layout and the one place the
// limits are checked. The spec and rank are checked before the bytes
// they count are read, so a forged length never drives a large read. On
// entry h.Spec is the previous frame's spec, kept when the bytes match
// so a run of frames with one spec allocates it once; the dims are
// appended to h.Shape, and the parsed head is returned. seal, when
// given, authenticates the head bytes once all are read and before any
// field past the rank is trusted. Its errors format copies of h's spec
// and shape, never h's own, so the callers' buffers stay off the heap.
func readFrameHead(next func(int) ([]byte, error), h frameHead, seal func() error) (frameHead, error) {
	b, err := next(2)
	if err != nil {
		return h, fmt.Errorf("reading spec length: %w", err)
	}
	specLen := int(binary.LittleEndian.Uint16(b))
	if specLen == 0 || specLen > maxSpecLen {
		return h, fmt.Errorf("spec length %d outside [1,%d]", specLen, maxSpecLen)
	}
	if b, err = next(specLen + 1); err != nil {
		return h, fmt.Errorf("reading spec: %w", err)
	}
	if string(b[:specLen]) != h.Spec {
		h.Spec = string(b[:specLen])
	}
	rank := int(b[specLen])
	if rank == 0 || rank > maxRank {
		return h, fmt.Errorf("rank %d outside [1,%d]", rank, maxRank)
	}
	n := 4 * rank
	if !h.lenAhead {
		n += 4
	}
	if b, err = next(n); err != nil {
		return h, fmt.Errorf("reading dims: %w", err)
	}
	start := len(h.Shape)
	h.Shape = slices.Grow(h.Shape, rank)
	for i := 0; i < rank; i++ {
		h.Shape = append(h.Shape, int(binary.LittleEndian.Uint32(b[4*i:])))
	}
	if !h.lenAhead {
		h.payLen = uint64(binary.LittleEndian.Uint32(b[4*rank:]))
	}
	if seal != nil {
		if err := seal(); err != nil {
			return h, err
		}
	}
	if specHasStages(h.Spec) != h.staged {
		mark := "unstaged"
		if h.staged {
			mark = "staged"
		}
		return h, fmt.Errorf("%s frame mark does not match spec %s", mark, strconv.Quote(h.Spec))
	}
	// The element product accumulates in uint64: each factor is checked
	// to ≤ 2²⁴ and the running product to ≤ 2²⁸ before the next multiply,
	// so the intermediate stays ≤ 2⁵², which a 32-bit int would wrap
	// straight past the maxElems check. A dim ≥ 2³¹ converts to a
	// negative int on 32-bit hosts, which the lower bound rejects.
	elems := uint64(1)
	for _, d := range h.Shape[start:] {
		if d < 1 || d > maxDim {
			return h, fmt.Errorf("dimension %d outside [1,%d]", d, maxDim)
		}
		if elems *= uint64(d); elems > maxElems {
			return h, fmt.Errorf("shape %v exceeds %d elements", slices.Clone(h.Shape[start:]), maxElems)
		}
	}
	if h.payLen > maxPayload {
		return h, fmt.Errorf("payload %d bytes exceeds limit %d", h.payLen, maxPayload)
	}
	return h, nil
}

// WriteContainer frames a payload under the given spec and shape. A
// "+fse" spec is refused with ErrBadSpec: that stage is decode-only.
func WriteContainer(w io.Writer, spec string, shape []int, payload []byte) (int64, error) {
	buf, err := appendContainer(nil, spec, shape, payload)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// appendContainer appends the container framing payload to dst, grown
// once for the whole container: magic, version, frame head, payload CRC
// and payload. It is WriteContainer's body, and Compress's whole
// output.
func appendContainer(dst []byte, spec string, shape []int, payload []byte) ([]byte, error) {
	if _, stage := splitSpecStage(spec); stage == "fse" {
		return nil, errFSEWrite
	}
	h := frameHead{Header: Header{Spec: spec, Shape: shape}, payLen: uint64(len(payload)), staged: specHasStages(spec)}
	version := uint16(containerVersion)
	if h.staged {
		version = containerVersionStaged
	}
	dst = slices.Grow(dst, 17+len(spec)+4*len(shape)+len(payload))
	dst = binary.LittleEndian.AppendUint32(dst, containerMagic)
	dst = binary.LittleEndian.AppendUint16(dst, version)
	dst, err := appendFrameHead(dst, h)
	if err != nil {
		return nil, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// ReadContainer parses exactly one container from r, verifying magic,
// version, header plausibility, and the payload CRC. It reads no byte
// past the container, so containers written back to back read back one
// call at a time.
func ReadContainer(r io.Reader) (Header, []byte, error) {
	return readContainer(func(n int) ([]byte, error) {
		// Grow as bytes arrive — doubling from 64 KiB — so a forged
		// payload length fails at the end of r, not at an allocation of
		// the claimed size.
		var b []byte
		for len(b) < n {
			k := min(n, max(2*len(b), 64<<10))
			b = slices.Grow(b, k-len(b))
			m, err := io.ReadFull(r, b[len(b):k])
			b = b[:len(b)+m]
			if err != nil {
				return nil, markIOTruncation(err)
			}
		}
		return b, nil
	})
}

// readContainerBytes reads the one container data must hold exactly,
// in place: the payload is a view of data, and trailing bytes after the
// container are rejected.
func readContainerBytes(data []byte) (Header, []byte, error) {
	src := memPayload{data}
	hdr, payload, err := readContainer(src.next)
	if err == nil && src.len() != 0 {
		err = fmt.Errorf("codec: %d trailing bytes after container", src.len())
	}
	return hdr, payload, err
}

// readContainer parses one container from next (see readFrameHead).
func readContainer(next func(int) ([]byte, error)) (Header, []byte, error) {
	b, err := next(6)
	if err != nil {
		return Header{}, nil, fmt.Errorf("codec: reading container header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(b); m != containerMagic {
		return Header{}, nil, fmt.Errorf("codec: bad magic %#x (not an ACCF container)", m)
	}
	version := binary.LittleEndian.Uint16(b[4:])
	if version != containerVersion && version != containerVersionStaged {
		return Header{}, nil, fmt.Errorf("codec: unsupported container version %d", version)
	}
	h, err := readFrameHead(next, frameHead{staged: version == containerVersionStaged}, nil)
	if err != nil {
		return Header{}, nil, fmt.Errorf("codec: %w", err)
	}
	if b, err = next(4); err != nil {
		return Header{}, nil, fmt.Errorf("codec: reading payload CRC: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(b)
	payload, err := next(int(h.payLen))
	if err != nil {
		return Header{}, nil, fmt.Errorf("codec: reading %d-byte payload: %w", h.payLen, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return Header{}, nil, markErr(ErrCRC, fmt.Errorf("codec: payload CRC mismatch (stored %#x, computed %#x)", wantCRC, got))
	}
	return h.Header, payload, nil
}
