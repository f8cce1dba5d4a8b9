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
	"sync/atomic"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The optional index footer makes an ACCF v2 stream seekable: a
// CRC-protected table of every record's byte offset, payload length,
// spec, and shape, written by StreamWriter.SetIndex immediately before
// the end-of-stream marker. It is length-suffixed with a trailing magic
// (the s2/seekable-zstd convention) so a random-access reader finds it
// from the tail in one bounded read, while the sequential StreamReader —
// and every pre-index reader of footer-less streams — keeps working:
// the footer is just one more marker-framed record to verify and skip.
//
// Footer layout, all fields little-endian, at stream offset F:
//
//	F+0     1   marker 'I' (0x49)
//	F+1     4   body length N (u32)
//	F+5     N   body:
//	              u32 record count R
//	              R entries, each:
//	                u64 record offset (of the record's marker byte)
//	                u64 payload length
//	                u8  record marker ('T' or 'S')
//	                u16 spec length L, then L spec bytes
//	                u8  rank K, then K × u32 dims
//	F+5+N   4   CRC32 (IEEE) over F+0 .. F+5+N (marker through body)
//	F+9+N   4   footer size S = N + 17 (u32)
//	F+13+N  4   index magic "ACCX"
//	F+17+N  1   end-of-stream marker 'E' (the stream's own, not the
//	            footer's: the footer always sits last, so the stream's
//	            final 13 bytes are CRC | S | magic | 'E' and
//	            F = size − 1 − S)
//
// Offsets and payload lengths are u64 on the wire; readers validate
// them against the stream size and maxPayload before ever converting to
// int, so 32-bit hosts reject rather than truncate (the same discipline
// as the PR 3 u32-length fixes).
//
// Trust model: the footer's CRC protects against corruption, not
// forgery — CRC32 is not cryptographic, and an attacker who can rewrite
// the footer can rewrite the records too. OpenIndexedStream therefore
// (a) statically validates every entry at load, (b) re-verifies the
// record header CRC at the entry's offset on every seek, and (c)
// cross-checks the entry's spec/shape/payload length against that
// CRC-verified header, returning ErrIndex on disagreement. An index
// that fails (a) — or whose CRC/framing fails — is discarded and the
// index is rebuilt from the records themselves.
const (
	// indexMagic trails the footer ("ACCX" on disk): the tail probe that
	// distinguishes an indexed stream from a plain one.
	indexMagic = 0x58434341
	// indexFooterOverhead is the footer's fixed framing: marker (1) +
	// body length (4) + CRC (4) + size (4) + magic (4).
	indexFooterOverhead = 17
	// minIndexFooter is the size of a footer with an empty table (the
	// body is just its u32 record count).
	minIndexFooter = indexFooterOverhead + 4
	// maxIndexBody bounds the footer body a stream may claim (64 MiB:
	// beyond 200k records even at the maximum entry size).
	maxIndexBody = 1 << 26
	// minIndexEntry is the smallest possible entry: offset (8) + payload
	// length (8) + marker (1) + spec length (2) + spec (≥1) + rank (1) +
	// dims (≥4). Used to bound the claimed record count against the body
	// length before anything is allocated.
	minIndexEntry = 25
)

// indexEntry is one record's row in the index, both as accumulated by
// the writer and as loaded (or rebuilt) by IndexedStream.
type indexEntry struct {
	off    int64 // stream offset of the record's marker byte
	payLen int64
	marker byte
	spec   string
	shape  []int
}

// encodeIndexFooter serializes the footer for a set of entries.
// Factored out of writeIndexFooter so tests can build forged footers.
func encodeIndexFooter(entries []indexEntry) ([]byte, error) {
	body := make([]byte, 0, 4+40*len(entries))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(entries)))
	for _, e := range entries {
		body = binary.LittleEndian.AppendUint64(body, uint64(e.off))
		body = binary.LittleEndian.AppendUint64(body, uint64(e.payLen))
		body = append(body, e.marker)
		var err error
		body, err = appendFrameHead(body, frameHead{Header: Header{Spec: e.spec, Shape: e.shape}, payLen: uint64(e.payLen), staged: e.marker == recStaged, lenAhead: true})
		if err != nil {
			return nil, err
		}
	}
	if len(body) > maxIndexBody {
		return nil, fmt.Errorf("codec: index footer body %d bytes exceeds limit %d", len(body), maxIndexBody)
	}
	foot := make([]byte, 0, len(body)+indexFooterOverhead)
	foot = append(foot, recIndex)
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(body)))
	foot = append(foot, body...)
	foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
	foot = binary.LittleEndian.AppendUint32(foot, uint32(len(body)+indexFooterOverhead))
	foot = binary.LittleEndian.AppendUint32(foot, indexMagic)
	return foot, nil
}

// writeIndexFooter emits the accumulated index as the stream's last
// record before the end marker. Called by Close after the last round
// is emitted, so sw.index and sw.off are settled.
func (sw *StreamWriter) writeIndexFooter() error {
	foot, err := encodeIndexFooter(sw.index)
	if err != nil {
		return err
	}
	if _, err := sw.w.Write(foot); err != nil {
		return fmt.Errorf("codec: writing index footer: %w", err)
	}
	sw.off += int64(len(foot))
	return nil
}

// checkStreamHeader validates the fixed 8-byte ACCF v2 stream header.
func checkStreamHeader(fixed []byte) error {
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != containerMagic {
		return fmt.Errorf("codec: bad magic %#x (not an ACCF stream)", m)
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != streamVersion {
		return fmt.Errorf("codec: unsupported stream version %d (want %d)", v, streamVersion)
	}
	if rsv := binary.LittleEndian.Uint16(fixed[6:]); rsv != 0 {
		return fmt.Errorf("codec: nonzero reserved field %#x in stream header", rsv)
	}
	return nil
}

// errNoFooter marks a stream with no loadable index footer — none at
// all, or one whose framing, CRC, or entries fail validation — which
// OpenIndexedStream answers with a rebuild and the sequential reader
// with a plain walk. Never returned to callers.
var errNoFooter = errors.New("codec: no index footer")

// IndexedStream is the random-access view of an ACCF v2 stream: a
// loaded (or rebuilt) record index over an io.ReaderAt, with O(1)
// per-record seeks and a bounded-parallel range decoder. Methods are
// safe for concurrent use; decoded codecs are cached per spec and
// shared across all seeks.
type IndexedStream struct {
	r       io.ReaderAt
	size    int64
	entries []indexEntry
	rebuilt bool
	workers atomic.Int64 // DecodeRange's width; 0 = GOMAXPROCS
	codecs  codecCache
}

// OpenIndexedStream opens a stream for random access. r must cover the
// whole stream: size is its total byte length (io.ReaderAt carries no
// length of its own — pass the file size, or len of the backing slice).
//
// If the stream ends with an index footer, it is loaded and validated
// with two tail reads, independent of stream length. Otherwise — no
// footer, or a footer whose CRC, framing, or entries fail validation —
// the index is rebuilt by sequentially walking the record headers
// (reading headers and chunk framing only, not payloads; see Rebuilt).
func OpenIndexedStream(r io.ReaderAt, size int64) (*IndexedStream, error) {
	// Minimum well-formed stream: the 8-byte header plus the end marker.
	if size < 9 {
		return nil, markErr(ErrTruncated, fmt.Errorf("codec: stream size %d below minimum 9", size))
	}
	var fixed [8]byte
	if _, err := r.ReadAt(fixed[:], 0); err != nil {
		return nil, fmt.Errorf("codec: reading stream header: %w", noEOF(err))
	}
	if err := checkStreamHeader(fixed[:]); err != nil {
		return nil, err
	}
	ix := &IndexedStream{r: r, size: size}
	entries, _, err := loadIndex(r, size)
	opened := streamM.iLoads
	if errors.Is(err, errNoFooter) {
		entries, err = ix.rebuild()
		ix.rebuilt, opened = true, streamM.iRebuilds
	}
	// Any other footer error is a read failure of the medium itself,
	// which would fail the rebuild too.
	if err != nil {
		return nil, err
	}
	opened.Inc()
	ix.entries = entries
	return ix, nil
}

// loadIndex is the one reader of the index footer, for
// OpenIndexedStream. src holds the whole stream at offsets [0, size).
// It returns the validated entry table and the footer's offset. A
// missing or malformed footer returns an error wrapping errNoFooter;
// any other error is an I/O failure of the source.
func loadIndex(src io.ReaderAt, size int64) ([]indexEntry, int64, error) {
	if size < 8+minIndexFooter+1 {
		return nil, 0, errNoFooter
	}
	// An indexed stream's last 13 bytes are CRC | size S | magic | 'E'.
	// The magic is the discriminator; a plain stream ends with arbitrary
	// record bytes before its 'E'.
	var tail [13]byte
	if _, err := src.ReadAt(tail[:], size-13); err != nil {
		return nil, 0, fmt.Errorf("codec: reading stream tail: %w", noEOF(err))
	}
	if tail[12] != recEnd || binary.LittleEndian.Uint32(tail[8:12]) != indexMagic {
		return nil, 0, errNoFooter
	}
	s := binary.LittleEndian.Uint32(tail[4:8])
	n := s - indexFooterOverhead // wraps past maxIndexBody when s < 17
	footOff := size - 1 - int64(s)
	if checkIndexFraming(n, nil, 0) != nil || footOff < 8 {
		return nil, 0, fmt.Errorf("%w: implausible footer size %d", errNoFooter, s)
	}
	foot := make([]byte, s)
	if _, err := src.ReadAt(foot, footOff); err != nil {
		return nil, 0, fmt.Errorf("codec: reading index footer at offset %d: %w", footOff, noEOF(err))
	}
	if foot[0] != recIndex || binary.LittleEndian.Uint32(foot[1:5]) != n {
		return nil, 0, fmt.Errorf("%w: malformed footer framing at offset %d", errNoFooter, footOff)
	}
	if err := checkIndexFraming(n, foot[5+n:], crc32.ChecksumIEEE(foot[:5+n])); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errNoFooter, err)
	}
	entries, err := parseIndexBody(foot[5:5+n], footOff)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errNoFooter, err)
	}
	return entries, footOff, nil
}

// checkIndexFraming is the footer's framing check, shared by every
// footer reader: the body length n within [4, maxIndexBody] and, when
// trailer (the 12 bytes CRC | size S | magic after the body) is given,
// the stored CRC equal to crc — computed over marker..body — S = n+17,
// and the "ACCX" magic. The rebuild walk and the sequential skip check
// n alone before reading anything further.
func checkIndexFraming(n uint32, trailer []byte, crc uint32) error {
	if n < 4 || n > maxIndexBody {
		return fmt.Errorf("index footer body %d bytes outside [4,%d]", n, maxIndexBody)
	}
	if trailer == nil {
		return nil
	}
	if want := binary.LittleEndian.Uint32(trailer); want != crc {
		return markErr(ErrCRC, fmt.Errorf("index footer CRC mismatch (stored %#x, computed %#x)", want, crc))
	}
	if s := binary.LittleEndian.Uint32(trailer[4:]); uint64(s) != uint64(n)+indexFooterOverhead {
		return fmt.Errorf("index footer size %d does not match body length %d", s, n)
	}
	if m := binary.LittleEndian.Uint32(trailer[8:]); m != indexMagic {
		return fmt.Errorf("bad index footer magic %#x", m)
	}
	return nil
}

// parseIndexBody decodes and validates the footer's entry table.
// footOff is where the footer starts: every record the table describes
// must lie in [8, footOff), and an entry claiming more payload than the
// bytes up to the next record fails with ErrIndex. All wire fields are
// validated as unsigned before any int conversion.
func parseIndexBody(body []byte, footOff int64) ([]indexEntry, error) {
	count := binary.LittleEndian.Uint32(body[0:4])
	// Bound the claimed count against the body before allocating.
	if uint64(count)*minIndexEntry > uint64(len(body)-4) {
		return nil, fmt.Errorf("codec: index claims %d entries in a %d-byte body", count, len(body))
	}
	entries := make([]indexEntry, 0, count)
	src := memPayload{body[4:]}
	prev := int64(7) // records start at offset 8, strictly increasing
	// Every entry's shape lands back to back in h.Shape, and h.Spec
	// carries the previous entry's spec: a stream's records mostly share
	// one, so the table parses without a per-entry allocation.
	h := frameHead{Header: Header{Shape: make([]int, 0, count)}, lenAhead: true}
	for i := 0; i < int(count); i++ {
		b, err := src.next(17) // offset, payload length, marker
		if err != nil {
			return nil, fmt.Errorf("codec: index entry %d truncated", i)
		}
		off64 := binary.LittleEndian.Uint64(b)
		h.payLen = binary.LittleEndian.Uint64(b[8:])
		marker := b[16]
		// footOff ≥ 8 and fits int64, so the unsigned comparison both
		// bounds the offset and licenses the conversion.
		if off64 >= uint64(footOff) {
			return nil, fmt.Errorf("codec: index entry %d offset %d beyond footer at %d", i, off64, footOff)
		}
		off := int64(off64)
		if off <= prev {
			return nil, fmt.Errorf("codec: index entry %d offset %d not increasing past %d", i, off, prev)
		}
		if marker != recTensor && marker != recStaged {
			return nil, fmt.Errorf("codec: index entry %d bad record marker %#x", i, marker)
		}
		h.staged = marker == recStaged
		start := len(h.Shape)
		if h, err = readFrameHead(src.next, h, nil); err != nil {
			return nil, fmt.Errorf("codec: index entry %d: %w", i, err)
		}
		shape := h.Shape[start:len(h.Shape):len(h.Shape)]
		entries = append(entries, indexEntry{off: off, payLen: int64(h.payLen), marker: marker, spec: h.Spec, shape: shape})
		prev = off
	}
	if src.len() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes after index entries", src.len())
	}
	// A record's payload lies between its offset and the next record (the
	// footer, for the last): a seek sizes its payload buffer from the
	// entry, so no entry may claim more than those bytes.
	for i, e := range entries {
		end := footOff
		if i+1 < len(entries) {
			end = entries[i+1].off
		}
		if e.payLen > end-e.off {
			return nil, markErr(ErrIndex, fmt.Errorf("codec: index entry %d claims %d payload bytes in the %d bytes before the next record", i, e.payLen, end-e.off))
		}
	}
	return entries, nil
}

// cursor returns a record cursor seeked to stream offset off with rec
// records behind it, sharing the stream's codec cache.
func (ix *IndexedStream) cursor(off int64, rec, window int) *recordCursor {
	c := &recordCursor{br: bufio.NewReaderSize(nil, window), rec: rec, src: ix.r, size: ix.size, codecs: &ix.codecs}
	c.seek(off)
	return c
}

// rebuild reconstructs the index by walking the records on a cursor in
// walk mode: each header is parsed and CRC-verified exactly as the
// sequential reader does, then the payload is hopped by its chunk
// headers — payload bytes are never read, so a rebuild costs
// O(records + chunks) reads, not O(stream bytes). A footer met on the
// walk is passed by its framing alone.
func (ix *IndexedStream) rebuild() ([]indexEntry, error) {
	// Small window: a rebuild touches one header per record, and the
	// maximum header is ~300 bytes.
	c := ix.cursor(8, 0, 512)
	c.walk = true
	var entries []indexEntry
	for {
		hdr, err := c.nextRecord()
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return nil, err
		}
		entries = append(entries, indexEntry{
			off:    c.markOff,
			payLen: int64(c.cur.len()),
			marker: recordMarker(hdr.Spec),
			spec:   hdr.Spec,
			shape:  hdr.Shape,
		})
	}
}

// Len reports the number of records in the index.
func (ix *IndexedStream) Len() int { return len(ix.entries) }

// Rebuilt reports whether the index was reconstructed by walking the
// records (no footer, or a footer that failed validation) rather than
// loaded from the footer.
func (ix *IndexedStream) Rebuilt() bool { return ix.rebuilt }

// Header returns record i's spec and shape from the index, without
// touching the stream. The shape is a fresh copy.
func (ix *IndexedStream) Header(i int) (Header, error) {
	if i < 0 || i >= len(ix.entries) {
		return Header{}, fmt.Errorf("codec: record index %d outside [0,%d)", i, len(ix.entries))
	}
	e := ix.entries[i]
	return Header{Spec: e.spec, Shape: append([]int(nil), e.shape...)}, nil
}

// SetConcurrency sets how many records DecodeRange decodes at once on
// the plane pool. n == 0 (the default) means one per
// runtime.GOMAXPROCS(0); n ≥ 1 sets the width explicitly. Unlike the sequential engines this may be changed at any time —
// it only affects subsequent DecodeRange calls.
func (ix *IndexedStream) SetConcurrency(n int) error {
	if n < 0 {
		return fmt.Errorf("codec: negative concurrency %d", n)
	}
	ix.workers.Store(int64(n))
	return nil
}

// DecodeAt decodes record i with a single seek: the record's header is
// re-parsed and CRC-verified at the indexed offset, cross-checked
// against the index entry (ErrIndex on disagreement — a forged or stale
// index never yields a wrong tensor silently), and the payload decoded
// through the same chunk-CRC-verified path as the sequential reader.
// Safe for concurrent use.
func (ix *IndexedStream) DecodeAt(ctx context.Context, i int) (*tensor.Tensor, error) {
	if i < 0 || i >= len(ix.entries) {
		return nil, fmt.Errorf("codec: record index %d outside [0,%d)", i, len(ix.entries))
	}
	start := telemetry.NowNanos()
	streamM.iSeeks.Inc()
	e := ix.entries[i]
	// Size the buffered window to the record itself (header + payload +
	// chunk framing slack), so a seek's reads are proportional to the
	// record, not to a fixed window that may span half the stream.
	c := ix.cursor(e.off, i, min(64<<10, int(e.payLen)+1024))
	defer c.releaseBufs()
	hdr, err := c.nextRecord()
	if err != nil {
		return nil, err
	}
	if hdr.Spec != e.spec || int64(c.cur.len()) != e.payLen || !slices.Equal(hdr.Shape, e.shape) {
		return nil, markErr(ErrIndex, fmt.Errorf(
			"codec: stream offset %d (record %d): index entry disagrees with record header (entry %q %v %d payload bytes, record %q %v %d)",
			e.off, i+1, e.spec, e.shape, e.payLen, hdr.Spec, hdr.Shape, c.cur.len()))
	}
	out, err := c.decodeRecord(ctx)
	if err != nil {
		return nil, err
	}
	streamM.iSeekNs.ObserveSince(start)
	return out, nil
}

// rangeJob is DecodeRange's job on the plane pool: pool index i decodes
// record lo+i into its slot.
type rangeJob struct {
	ix     *IndexedStream
	ctx    context.Context
	cancel context.CancelFunc
	lo     int
	out    []*tensor.Tensor
	errs   []error
}

// RunPlane decodes one record; a failure cancels the records not yet
// started.
func (j *rangeJob) RunPlane(i int) {
	if j.ctx.Err() != nil {
		return
	}
	t, err := j.ix.DecodeAt(j.ctx, j.lo+i)
	if err != nil {
		j.errs[i] = err
		j.cancel()
		return
	}
	j.out[i] = t
	streamM.iRangeRecords.Inc()
}

// DecodeRange decodes records [lo, hi) concurrently on the plane pool,
// one record per pool index at the width SetConcurrency sets, and
// returns them in record order. Each record's own plane loop then finds
// the pool busy and runs serially, so parallelism is never nested. On
// failure the records not yet started are cancelled and the
// lowest-indexed causal error is returned (cancellation fallout from
// sibling records does not mask it).
func (ix *IndexedStream) DecodeRange(ctx context.Context, lo, hi int) ([]*tensor.Tensor, error) {
	if lo < 0 || hi > len(ix.entries) || lo > hi {
		return nil, fmt.Errorf("codec: record range [%d,%d) outside [0,%d)", lo, hi, len(ix.entries))
	}
	n := hi - lo
	if n == 0 {
		return nil, ctx.Err()
	}
	width := int(ix.workers.Load())
	if width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &rangeJob{ix: ix, ctx: wctx, cancel: cancel, lo: lo,
		out: make([]*tensor.Tensor, n), errs: make([]error, n)}
	tensor.ParallelPlanesWidth(n, width, j)
	// Deterministic error selection: prefer the lowest-indexed causal
	// failure; a sibling's cancellation fallout only surfaces when no
	// record failed otherwise.
	var firstCancel error
	for _, err := range j.errs {
		if err == nil {
			continue
		}
		if ErrorKind(err) != "canceled" {
			return nil, err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, markErr(ErrCanceled, fmt.Errorf("codec: range decode aborted: %w", err))
	}
	if firstCancel != nil {
		return nil, firstCancel
	}
	return j.out, nil
}
