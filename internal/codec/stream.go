package codec

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ACCF v2 is the streaming multi-tensor container: a sequence of
// independently decodable, CRC-protected records framing one tensor
// each. Unlike the v1 container (one monolithic payload, CRC over the
// payload only), v2 protects the record header itself with a CRC and
// splits the payload into CRC-protected chunks, so decode can stream
// with bounded memory and corruption is reported with a byte position.
//
// Layout, all fields little-endian:
//
//	stream header:
//	  0   4   magic "ACCF"
//	  4   2   format version (2)
//	  6   2   reserved (0)
//	record, repeated:
//	  +0  1   marker: 'T' (0x54) tensor record, 'S' (0x53) staged
//	          tensor record (spec carries a "+stage" suffix), 'E' (0x45)
//	          end of stream
//	tensor record, after the marker:
//	  +0  2   spec length L
//	  +2  L   codec spec string
//	  +2+L 1  tensor rank R
//	  …   4·R dims (uint32 each)
//	  …   4   payload length P
//	  …   4   header CRC32 (IEEE) over marker..payload-length
//	  …       chunked payload until P bytes delivered:
//	            u32 chunk length C (1..min(P remaining, 64 MiB))
//	            u32 chunk CRC32 (IEEE)
//	            C bytes
//	end-of-stream record: the marker alone; nothing may follow it.
//
// The reader never buffers a whole payload: chunk bytes flow straight
// into the decoder's plane-group scratch, with CRCs verified as the
// bytes pass through. A corrupted chunk therefore surfaces before its
// group's Decode call can return success.
const (
	streamVersion = 2

	recTensor = 0x54 // 'T'
	recEnd    = 0x45 // 'E'
	// recStaged ('S') frames a tensor record whose spec carries a stage
	// ("family:…+stage"). The record layout after the marker is
	// identical to 'T'; the distinct marker makes pre-stage readers fail
	// on "bad record marker" instead of feeding an entropy-coded payload
	// to a family decoder. Unstaged records keep the 'T' marker, so
	// pre-stage streams are byte-identical.
	recStaged = 0x53 // 'S'
	// recIndex ('I') frames the optional index footer: a CRC-protected
	// table of every record's offset, payload length, spec, and shape,
	// written immediately before the end marker (see stream_index.go for
	// the wire layout and the random-access reader built on it).
	recIndex = 0x49 // 'I'

	// maxStreamChunk bounds a chunk length a record may claim.
	maxStreamChunk = 1 << 26
	// defaultStreamChunk is the writer's chunk size.
	defaultStreamChunk = 1 << 20
	// minStreamChunk floors configurable chunk sizes.
	minStreamChunk = 4 << 10
)

// planeGroupBytes is the target size of one streamed plane-group read —
// the decoder's peak transient buffer. A single plane larger than this
// forms a group of one.
const planeGroupBytes = 1 << 20

// StreamWriter frames a sequence of tensors as ACCF v2 records on w.
// WriteTensor admits each record into a round; the call that closes a
// round encodes its records on the plane pool and emits them in
// WriteTensor order (see SetConcurrency). By default a round holds one
// record, so each record is encoded and written before WriteTensor
// returns, and the writer buffers one record's payload at a time, never
// the stream.
//
// A failed encode or write to w poisons the writer: every later
// WriteTensor and Close returns the first failure, and Close writes no
// index footer and no end marker, so the truncation is visible to
// readers.
type StreamWriter struct {
	w     io.Writer
	chunk int
	// started flips on the first WriteTensor and freezes configuration.
	started bool
	closed  bool
	records int
	// head is WriteTensor's scratch for a record's frame head, checked
	// before the record is admitted.
	head []byte

	// width is the round size SetConcurrency sets (0 = GOMAXPROCS until
	// the first WriteTensor resolves it), and budget caps the
	// uncompressed bytes a round holds; inflight is what the open round
	// holds and maxInFlight its high-water mark.
	width       int
	budget      int64
	round       writeRound
	inflight    int64
	maxInFlight int64

	// off is the running byte offset of the stream, 0 until the stream
	// header is written: every write to w passes through
	// writeStreamHeader, emitRecord, or finish, each of which advances it.
	off int64
	// indexOn, set by SetIndex, makes Close emit the index footer;
	// emitRecord accumulates one index entry per record while it is set.
	indexOn bool
	index   []indexEntry

	// err is the writer's sticky failure: a record's encode, a write to
	// w, or a write of Close's tail.
	err error
}

// defaultMaxInFlightBytes bounds the uncompressed bytes of one round.
// 64 MiB keeps a handful of large training batches in a round without
// letting a wide round grow the heap unboundedly.
const defaultMaxInFlightBytes = 64 << 20

// NewStreamWriter returns a StreamWriter targeting w. The stream header
// is written lazily on the first record (or Close).
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: w, chunk: defaultStreamChunk, width: 1, budget: defaultMaxInFlightBytes}
}

// SetChunkSize overrides the payload chunk size, clamped to
// [4 KiB, 64 MiB]. Smaller chunks localize corruption and lower the
// reader's transient buffer; larger chunks shave framing overhead.
// Must be called before the first WriteTensor; later calls are ignored.
func (sw *StreamWriter) SetChunkSize(n int) {
	if sw.started {
		return
	}
	if n < minStreamChunk {
		n = minStreamChunk
	}
	if n > maxStreamChunk {
		n = maxStreamChunk
	}
	sw.chunk = n
}

// SetConcurrency sets the writer's round size: how many records are
// admitted before the WriteTensor call that closes the round encodes
// them together on the plane pool, one record per pool index. n == 1
// (the default) encodes and writes each record in its own WriteTensor
// call; n == 0 means runtime.GOMAXPROCS(0) at the first WriteTensor.
// Must be called before the first WriteTensor.
//
// With n > 1, WriteTensor returns after admitting a record that does
// not close its round: that record's encode error surfaces on the call
// that closes the round or on Close, and the caller must not mutate an
// admitted tensor until Close returns. A round also closes early when
// the next record would push its uncompressed bytes past 64 MiB, so a
// wide round cannot grow the heap without bound; a record larger than
// that goes in a round of its own. The stream is byte-identical at
// every n.
func (sw *StreamWriter) SetConcurrency(n int) error {
	if sw.started || sw.closed {
		return fmt.Errorf("codec: SetConcurrency must be called before the first WriteTensor")
	}
	if n < 0 {
		return fmt.Errorf("codec: negative concurrency %d", n)
	}
	sw.width = n
	return nil
}

// Records reports how many tensor records have been written. With a
// round size above one this counts emitted records, which may trail
// WriteTensor calls until Close.
func (sw *StreamWriter) Records() int { return sw.records }

// SetIndex enables (or disables) the index footer: with it on, Close
// emits a CRC-protected table of every record's byte offset, payload
// length, spec, and shape just before the end-of-stream marker, which
// OpenIndexedStream uses for O(1) record seeks. The footer is
// self-describing and optional: a plain StreamReader verifies and skips
// it, and streams written without it are byte-identical to pre-index
// writers. Must be called before the first WriteTensor.
func (sw *StreamWriter) SetIndex(on bool) error {
	if sw.started || sw.closed {
		return fmt.Errorf("codec: SetIndex must be called before the first WriteTensor")
	}
	sw.indexOn = on
	return nil
}

func (sw *StreamWriter) writeStreamHeader() error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], containerMagic)
	binary.LittleEndian.PutUint16(hdr[4:], streamVersion)
	binary.LittleEndian.PutUint16(hdr[6:], 0)
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("codec: writing stream header: %w", err)
	}
	sw.off += int64(len(hdr))
	return nil
}

// WriteTensor appends one tensor record, encoded with c (which must be
// a registry codec). The record is self-describing: spec and shape ride
// in its CRC-protected header.
func (sw *StreamWriter) WriteTensor(ctx context.Context, c Codec, x *tensor.Tensor) error {
	if sw.closed {
		return fmt.Errorf("codec: stream writer is closed")
	}
	if sw.err != nil {
		return sw.err
	}
	if !sw.started {
		sw.started = true
		if sw.width == 0 {
			sw.width = runtime.GOMAXPROCS(0)
		}
	}
	impl, ok := c.(*codecImpl)
	if !ok {
		return fmt.Errorf("codec: %T is not a registry codec", c)
	}
	shape := x.Shape()
	// Check the head before admitting: a shape no reader accepts fails
	// here, without poisoning the writer.
	var err error
	if sw.head, err = appendFrameHead(sw.head[:0], frameHead{Header: Header{Spec: impl.spec, Shape: shape}, staged: specHasStages(impl.spec)}); err != nil {
		return err
	}
	cost := int64(x.SizeBytes())
	if len(sw.round.recs) > 0 && sw.inflight+cost > sw.budget {
		if err := sw.flush(); err != nil {
			return err
		}
	}
	sw.round.recs = append(sw.round.recs, pendingRecord{ctx: ctx, c: impl, x: x, shape: shape})
	sw.inflight += cost
	sw.maxInFlight = max(sw.maxInFlight, sw.inflight)
	streamM.wInflight.Add(cost)
	if len(sw.round.recs) < sw.width {
		return nil
	}
	return sw.flush()
}

// pendingRecord is one admitted record: its encode inputs, then the
// encode's result.
type pendingRecord struct {
	ctx     context.Context
	c       *codecImpl // full codec: the encode runs the entropy stage too
	x       *tensor.Tensor
	shape   []int
	payload []byte
	err     error
}

// writeRound is the writer's job on the plane pool: pool index i
// encodes the round's record i into its slot. The writer keeps one and
// reuses its slots, so closing a round allocates nothing to fan out.
type writeRound struct{ recs []pendingRecord }

// RunPlane encodes one record.
func (r *writeRound) RunPlane(i int) {
	p := &r.recs[i]
	ts := telemetry.NowNanos()
	p.payload, p.err = p.c.encodePayload(p.ctx, p.x)
	streamM.wEncodeNs.ObserveSince(ts)
}

// flush closes the round: its records encode on the plane pool, at
// most width at once, and each record's own plane loop then finds the
// pool busy and runs serially, so parallelism is never nested. The
// records are then emitted in WriteTensor order on the caller's
// goroutine; the first failure in that order poisons the writer and
// nothing after it is written. A record counts as admitted only once
// its encode succeeded.
func (sw *StreamWriter) flush() error {
	recs := sw.round.recs
	tensor.ParallelPlanesWidth(len(recs), sw.width, &sw.round)
	for i := range recs {
		p := &recs[i]
		if sw.err == nil {
			if sw.err = p.err; sw.err == nil {
				streamM.wAdmitted.Inc()
				streamM.wBytesIn.Add(uint64(p.x.SizeBytes()))
				sw.err = sw.emitRecord(p.c.spec, p.shape, p.payload)
			}
		}
		recs[i] = pendingRecord{} // drop the tensor and payload
	}
	sw.round.recs = recs[:0]
	streamM.wInflight.Add(-sw.inflight)
	sw.inflight = 0
	return sw.err
}

// emitRecord frames one encoded payload as a tensor record: the lazily
// written stream header, the CRC-protected record header, then the
// chunked payload.
func (sw *StreamWriter) emitRecord(spec string, shape []int, payload []byte) error {
	marker := recordMarker(spec)
	// Record header: marker..payload-length, then its CRC.
	hdr := make([]byte, 1, 12+len(spec)+4*len(shape))
	hdr[0] = marker
	hdr, err := appendFrameHead(hdr, frameHead{Header: Header{Spec: spec, Shape: shape}, payLen: uint64(len(payload)), staged: marker == recStaged})
	if err != nil {
		return err
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if sw.off == 0 {
		if err := sw.writeStreamHeader(); err != nil {
			return err
		}
	}
	recOff := sw.off // offset of the record's marker byte, for the index
	if _, err := sw.w.Write(hdr); err != nil {
		return fmt.Errorf("codec: writing record header: %w", err)
	}
	sw.off += int64(len(hdr))
	for off := 0; off < len(payload); {
		n := len(payload) - off
		if n > sw.chunk {
			n = sw.chunk
		}
		chunk := payload[off : off+n]
		var ch [8]byte
		binary.LittleEndian.PutUint32(ch[0:], uint32(n))
		binary.LittleEndian.PutUint32(ch[4:], crc32.ChecksumIEEE(chunk))
		if _, err := sw.w.Write(ch[:]); err != nil {
			return fmt.Errorf("codec: writing chunk header: %w", err)
		}
		if _, err := sw.w.Write(chunk); err != nil {
			return fmt.Errorf("codec: writing chunk: %w", err)
		}
		sw.off += int64(len(ch)) + int64(n)
		off += n
	}
	if sw.indexOn {
		sw.index = append(sw.index, indexEntry{
			off:    recOff,
			payLen: int64(len(payload)),
			marker: marker,
			spec:   spec,
			shape:  append([]int(nil), shape...),
		})
	}
	sw.records++
	streamM.wRecords.Inc()
	streamM.wBytesOut.Add(uint64(len(payload)))
	return nil
}

// recordMarker is the marker a record with this spec is framed with:
// 'S' when the spec carries a stage, 'T' otherwise.
func recordMarker(spec string) byte {
	if specHasStages(spec) {
		return recStaged
	}
	return recTensor
}

// Close terminates the stream with the end-of-stream marker, after
// encoding and emitting the last, partial round. A failure — that
// round's or an earlier one — is returned here and the end marker
// withheld, so the truncation is visible to readers. It does not close
// the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	if sw.err != nil {
		return sw.err
	}
	if err := sw.flush(); err != nil {
		return err
	}
	if sw.err = sw.finish(); sw.err != nil {
		return sw.err
	}
	sw.closed = true
	return nil
}

// finish writes the stream's tail: the header of an empty stream, the
// index footer when enabled, and the end-of-stream marker.
func (sw *StreamWriter) finish() error {
	if sw.off == 0 {
		if err := sw.writeStreamHeader(); err != nil {
			return err
		}
	}
	if sw.indexOn {
		if err := sw.writeIndexFooter(); err != nil {
			return err
		}
	}
	if _, err := sw.w.Write([]byte{recEnd}); err != nil {
		return fmt.Errorf("codec: writing end-of-stream marker: %w", err)
	}
	sw.off++
	return nil
}

// StreamReader decodes an ACCF v2 stream record by record: Next parses
// and returns the next record's header, then Decode (or Skip) consumes
// its payload. Peak extra memory during Decode is one plane-group
// buffer, not the record payload (with read-ahead, a round's payloads
// are resident; see SetReadAhead). All errors carry the stream byte
// offset; any error other than the clean io.EOF from Next is sticky —
// a corrupted stream cannot be resynchronized.
type StreamReader struct {
	// The embedded cursor parses the records. With read-ahead enabled
	// only round reads use it, and the public methods serve from the
	// round (see stream_parallel.go).
	recordCursor
	round readRound
}

// NewStreamReader validates the stream header and returns a reader
// positioned before the first record.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	sr := &StreamReader{}
	sr.recordCursor = recordCursor{br: bufio.NewReaderSize(r, 64<<10), codecs: new(codecCache)}
	var fixed [8]byte
	if err := sr.readFull(fixed[:]); err != nil {
		return nil, fmt.Errorf("codec: reading stream header: %w", err)
	}
	if err := checkStreamHeader(fixed[:]); err != nil {
		return nil, err
	}
	return sr, nil
}

// codecCache resolves codecs by spec for every cursor over one stream:
// multi-record streams typically repeat one spec, and some backends
// (dctc) compile per-resolution state that must be built once, not per
// record or per seek. Safe for concurrent use.
type codecCache struct {
	mu sync.RWMutex
	m  map[string]*codecImpl
}

func (cc *codecCache) lookup(spec string) (*codecImpl, error) {
	cc.mu.RLock()
	c, ok := cc.m[spec]
	cc.mu.RUnlock()
	if ok {
		return c, nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c, ok := cc.m[spec]; ok {
		return c, nil
	}
	built, err := New(spec)
	if err != nil {
		return nil, err
	}
	if cc.m == nil {
		cc.m = make(map[string]*codecImpl)
	}
	cc.m[spec] = built.(*codecImpl)
	return cc.m[spec], nil
}

// recordCursor is the one parser of ACCF v2 records: the sequential
// StreamReader and its read-ahead rounds, IndexedStream's seeks and
// range decodes, and the index rebuild walk all position and parse
// records through it. It holds the buffered window over the source, the
// stream offset and record number every error reports, the pending
// record's CRC-verified header and chunked payload reader, and the
// sticky failure.
type recordCursor struct {
	br  *bufio.Reader
	off int64 // stream offset of the next unread byte
	rec int   // records seen (1-based once nextRecord succeeds)
	hdr Header
	cur *payloadReader // pending record payload, nil between records
	err error          // sticky failure (or io.EOF after the end marker)
	// buf backs the views cur hands out, and vals is decode staging for
	// them (dctc's group floats). Both are taken from their pools at
	// first use and kept until the stream ends (or the seek is done), so
	// the records of one stream reuse them and no GC can take them back
	// mid-stream; buf grows only as payload bytes arrive.
	buf  *[]byte
	vals *[]float32
	// markOff is the stream offset of the pending record's marker byte.
	markOff int64
	// headCRC accumulates the CRC of the record header being parsed.
	headCRC uint32
	// sawFooter flips once an index footer has been passed; only the end
	// marker may follow it.
	sawFooter bool

	// src, when non-nil, is the whole stream as an io.ReaderAt of length
	// size, addressed by stream offset: seek re-windows the cursor
	// through it. The sequential StreamReader has none.
	src  io.ReaderAt
	size int64
	// walk marks the index rebuild: footers and payloads are passed by
	// their framing alone, never read or CRC-checked.
	walk bool

	codecs *codecCache
}

// seek repositions the cursor at stream offset off: a target inside the
// buffered window is discarded to, anything else re-windows src at off.
// It is the one positioning step of the index paths — a DecodeAt and
// the rebuild walk's payload hops.
func (c *recordCursor) seek(off int64) {
	if d := off - c.off; d >= 0 && d < int64(c.br.Buffered()) {
		c.br.Discard(int(d))
	} else {
		c.br.Reset(io.NewSectionReader(c.src, off, c.size-off))
	}
	c.off = off
}

// readFull reads exactly len(p) bytes, tracking the stream offset.
func (c *recordCursor) readFull(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.off += int64(n)
	return err
}

// fail prefixes err with the stream position and latches it as the
// cursor's sticky failure; errors.Is sees through to err's chain.
func (c *recordCursor) fail(err error) error {
	c.err = fmt.Errorf("codec: stream offset %d (record %d): %w", c.off, c.rec, err)
	return c.err
}

// posf is fail over a formatted message.
func (c *recordCursor) posf(format string, args ...any) error {
	return c.fail(fmt.Errorf(format, args...))
}

// poskf is posf with a typed error kind attached (see errors.go).
func (c *recordCursor) poskf(kind error, format string, args ...any) error {
	return c.fail(markErr(kind, fmt.Errorf(format, args...)))
}

// posw is fail over an underlying error with a context prefix.
func (c *recordCursor) posw(context string, err error) error {
	return c.fail(fmt.Errorf("%s: %w", context, err))
}

// crcFail counts a CRC mismatch and latches it with the ErrCRC kind.
func (c *recordCursor) crcFail(err error) error {
	streamM.rCRCFail.Inc()
	return c.fail(markErr(ErrCRC, err))
}

// nextRecord advances to the next record and returns its header. It
// returns io.EOF (exactly, not wrapped) after a well-formed
// end-of-stream marker; a stream that simply stops without the marker
// is a truncation error. An unconsumed previous payload is skipped
// first.
func (c *recordCursor) nextRecord() (Header, error) {
	if c.err != nil {
		return Header{}, c.err
	}
	if c.cur != nil {
		if err := c.skipRecord(); err != nil {
			return Header{}, err
		}
	}
	var marker byte
	for {
		// The marker opens the CRC-protected record header.
		c.headCRC = 0
		b, err := c.headBytes(1)
		if err != nil {
			return Header{}, c.posw("reading record marker", err)
		}
		switch marker = b[0]; marker {
		case recEnd:
			// Nothing may follow the end marker: a concatenation or a
			// duplicated tail is a framing error, not silently ignored.
			if _, err := c.br.ReadByte(); err == nil {
				return Header{}, c.posf("trailing data after end-of-stream marker")
			} else if err != io.EOF {
				return Header{}, c.posw("probing for end of stream", err)
			}
			c.err = io.EOF
			c.releaseBufs()
			return Header{}, io.EOF
		case recIndex:
			// The index footer is for random-access readers; here it is
			// verified and passed. It must be the last record before the
			// end marker.
			if c.sawFooter {
				return Header{}, c.posf("duplicate index footer")
			}
			if err := c.skipFooter(); err != nil {
				return Header{}, err
			}
			c.sawFooter = true
			continue
		case recTensor, recStaged:
			if c.sawFooter {
				return Header{}, c.posf("tensor record after index footer")
			}
		default:
			return Header{}, c.posf("bad record marker %#x", marker)
		}
		break
	}
	c.markOff = c.off - 1
	c.rec++
	// The head is read straight from the buffered window, folded into the
	// header CRC as it passes, and sealed by the stored CRC before any
	// field past the rank is trusted. The cursor's previous spec and
	// shape are the parse's starting point, so records sharing a spec
	// reuse its string and every record reuses the shape's backing.
	h, err := readFrameHead(c.headBytes, frameHead{Header: Header{Spec: c.hdr.Spec, Shape: c.hdr.Shape[:0]}, staged: marker == recStaged}, c.sealHead)
	if err != nil {
		return Header{}, c.fail(err)
	}
	c.hdr = h.Header
	c.cur = &payloadReader{c: c, remaining: int(h.payLen)}
	streamM.rRecords.Inc()
	// The caller gets its own copy of the shape: the cursor keeps using
	// c.hdr.Shape for the decode, so a caller mutating the returned
	// header cannot redirect it (and nothing the cursor does later can
	// touch the caller's slice).
	ret := h.Header
	ret.Shape = append([]int(nil), h.Shape...)
	return ret, nil
}

// headBytes is the byte source of a record's frame head: n bytes viewed
// in the buffered window (valid until the next read) and folded into
// the header CRC.
func (c *recordCursor) headBytes(n int) ([]byte, error) {
	b, err := c.br.Peek(n)
	if err != nil {
		return nil, noEOF(err)
	}
	c.br.Discard(n)
	c.off += int64(n)
	c.headCRC = crc32.Update(c.headCRC, crc32.IEEETable, b)
	return b, nil
}

// sealHead checks the record header's stored CRC against the bytes the
// head was parsed from.
func (c *recordCursor) sealHead() error {
	crc := c.headCRC
	b, err := c.headBytes(4)
	if err != nil {
		return fmt.Errorf("reading header CRC: %w", err)
	}
	if want := binary.LittleEndian.Uint32(b); want != crc {
		streamM.rCRCFail.Inc()
		return markErr(ErrCRC, fmt.Errorf("record header CRC mismatch (stored %#x, computed %#x)", want, crc))
	}
	return nil
}

// skipFooter passes an index footer whose marker byte was just read. The
// sequential reader has no use for the table but still enforces its
// framing and CRC, streaming the body through the CRC in bounded pieces
// so a forged length never forces a large allocation. The rebuild walk
// checks the framing structurally only — a corrupt footer is why it
// runs — and jumps to the end marker.
func (c *recordCursor) skipFooter() error {
	var lenBuf [4]byte
	if err := c.readFull(lenBuf[:]); err != nil {
		return c.posw("reading index footer length", noEOF(err))
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if err := checkIndexFraming(n, nil, 0); err != nil {
		return c.fail(err)
	}
	if c.walk {
		end := c.off + int64(n) + indexFooterOverhead - 5 // past body, CRC, size, magic
		if end != c.size-1 {
			return c.posf("index footer does not reach the end marker")
		}
		c.seek(end)
		return nil
	}
	crc := crc32.Update(crc32.ChecksumIEEE([]byte{recIndex}), crc32.IEEETable, lenBuf[:])
	bp := getByteScratch(32 << 10)
	defer putByteScratch(bp)
	buf := *bp
	for remaining := int64(n); remaining > 0; {
		k := min(int64(len(buf)), remaining)
		if err := c.readFull(buf[:k]); err != nil {
			return c.posw("reading index footer body", noEOF(err))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:k])
		remaining -= k
	}
	var trailer [12]byte
	if err := c.readFull(trailer[:]); err != nil {
		return c.posw("reading index footer trailer", noEOF(err))
	}
	if err := checkIndexFraming(n, trailer[:], crc); errors.Is(err, ErrCRC) {
		return c.crcFail(err)
	} else if err != nil {
		return c.fail(err)
	}
	return nil
}

// decodeRecord decompresses the pending record into a tensor. The codec
// is resolved from the record's (CRC-verified) spec. An unstaged record
// decodes straight from its chunked payload, holding at most one plane
// group of compressed bytes; a staged record is taken whole, because
// the entropy stage decodes the whole payload.
func (c *recordCursor) decodeRecord(ctx context.Context) (*tensor.Tensor, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.cur == nil {
		return nil, fmt.Errorf("codec: no pending record (call Next first)")
	}
	start := telemetry.NowNanos()
	impl, err := c.codecs.lookup(c.hdr.Spec)
	if err != nil {
		return nil, c.posw(fmt.Sprintf("record spec %q", c.hdr.Spec), err)
	}
	var out *tensor.Tensor
	if impl.stage == "" {
		out, err = impl.b.decode(ctx, c.cur, c.hdr.Shape)
	} else {
		var payload []byte
		if payload, err = c.cur.next(c.cur.len()); err == nil {
			out, err = impl.decodePayload(ctx, payload, c.hdr.Shape)
		}
	}
	if err != nil {
		if c.err == nil {
			return nil, c.posw("decoding record", err)
		}
		return nil, c.err
	}
	if c.cur.len() != 0 {
		return nil, c.posf("%d trailing payload bytes after decode", c.cur.len())
	}
	c.cur = nil
	streamM.rDecoded.Add(uint64(out.SizeBytes()))
	streamM.rDecodeNs.ObserveSince(start)
	return out, nil
}

// skipRecord discards the pending record's payload: the rebuild walk
// hops its chunk headers, and otherwise the chunks are drained with
// every chunk CRC verified along the way.
func (c *recordCursor) skipRecord() error {
	if c.err != nil {
		return c.err
	}
	if c.cur == nil {
		return nil
	}
	if c.walk {
		// Hop the chunk headers alone: each chunk length is validated
		// and its bytes jumped, never read or CRC-checked. A hop past
		// the end of the stream fails the next read as a truncation.
		for p := c.cur; p.remaining > 0; p.remaining -= p.chunkLeft {
			if err := p.nextChunk(); err != nil {
				return err
			}
			c.seek(c.off + int64(p.chunkLeft))
		}
	} else {
		for c.cur.len() > 0 {
			if _, err := c.cur.next(min(c.cur.len(), 32<<10)); err != nil {
				return err
			}
		}
	}
	c.cur = nil
	return nil
}

// noEOF maps a bare io.EOF to io.ErrUnexpectedEOF: inside a record (or
// before the end marker) running out of bytes is a truncation, and a
// bare io.EOF would masquerade as a clean end of stream. Either way the
// result carries the ErrTruncated kind.
func noEOF(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return markIOTruncation(err)
}

// payloadReader streams one record's chunked payload: the payload
// source a v2 record hands its backend. Bytes flow from the underlying
// stream into the cursor's payload buffer while a running CRC is folded
// per chunk; a chunk whose CRC fails stops the decode at its last byte.
type payloadReader struct {
	c         *recordCursor
	remaining int    // payload bytes not yet delivered
	chunkLeft int    // bytes left in the current chunk
	crc       uint32 // running CRC of the current chunk
	wantCRC   uint32
	chunkOff  int64 // stream offset of the current chunk's first byte
}

// len reports the payload bytes not yet delivered.
func (r *payloadReader) len() int { return r.remaining }

// nextChunk reads and validates the next chunk header.
func (r *payloadReader) nextChunk() error {
	var ch [8]byte
	if err := r.c.readFull(ch[:]); err != nil {
		return r.c.posw("reading chunk header", noEOF(err))
	}
	clen := binary.LittleEndian.Uint32(ch[0:])
	if clen == 0 || clen > maxStreamChunk || uint64(clen) > uint64(r.remaining) {
		return r.c.posf("chunk length %d outside [1,%d] with %d payload bytes left", clen, maxStreamChunk, r.remaining)
	}
	r.chunkLeft = int(clen)
	r.wantCRC = binary.LittleEndian.Uint32(ch[4:])
	r.crc = 0
	r.chunkOff = r.c.off
	return nil
}

// read fills p with payload bytes from the current chunk, opening the
// next chunk when the current one is spent; 0 < len(p) ≤ remaining.
func (r *payloadReader) read(p []byte) (int, error) {
	if r.c.err != nil {
		return 0, r.c.err
	}
	if r.chunkLeft == 0 {
		if err := r.nextChunk(); err != nil {
			return 0, err
		}
		streamM.rChunks.Inc()
	}
	n := min(len(p), r.chunkLeft)
	if err := r.c.readFull(p[:n]); err != nil {
		return 0, r.c.posw("reading chunk", noEOF(err))
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	r.chunkLeft -= n
	r.remaining -= n
	streamM.rBytes.Add(uint64(n))
	if r.chunkLeft == 0 && r.crc != r.wantCRC {
		return 0, r.c.crcFail(fmt.Errorf("chunk at offset %d CRC mismatch (stored %#x, computed %#x)", r.chunkOff, r.wantCRC, r.crc))
	}
	return n, nil
}

// next takes the next n payload bytes into the cursor's payload buffer.
// The buffer grows only as bytes arrive — doubling from 64 KiB — so a
// forged payload length cannot force an allocation the stream does not
// back. The view is valid until the next call.
func (r *payloadReader) next(n int) ([]byte, error) {
	if n > r.remaining {
		return nil, r.c.poskf(ErrTruncated, "payload truncated: want %d bytes, %d left", n, r.remaining)
	}
	if r.c.buf == nil {
		r.c.buf = payloadBufs.Get().(*[]byte)
	}
	buf := (*r.c.buf)[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, max(2*len(buf), 64<<10))-len(buf))
		}
		k, err := r.read(buf[len(buf):min(n, cap(buf))])
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+k]
	}
	*r.c.buf = buf
	return buf, nil
}

// staging returns n floats of the cursor's decode staging.
func (r *payloadReader) staging(n int) []float32 {
	if r.c.vals == nil {
		r.c.vals = scratchPool.Get().(*[]float32)
	}
	if cap(*r.c.vals) < n {
		*r.c.vals = make([]float32, n)
	}
	return (*r.c.vals)[:n]
}

// payloadBufs recycles record cursors' payload buffers across streams
// and seeks.
var payloadBufs = sync.Pool{New: func() any { return new([]byte) }}

// releaseBufs hands the cursor's payload buffer and staging back to
// their pools.
func (c *recordCursor) releaseBufs() {
	if c.buf != nil {
		payloadBufs.Put(c.buf)
		c.buf = nil
	}
	if c.vals != nil {
		scratchPool.Put(c.vals)
		c.vals = nil
	}
}
