package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// writeIndexedStream writes every streamCases record with the index
// footer enabled, returning the bytes and the expected decodes (via the
// bit-identical v1 container path, as in TestStreamRoundTrip).
func writeIndexedStream(t *testing.T, parallel bool) ([]byte, []*tensor.Tensor) {
	t.Helper()
	ctx := context.Background()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	if err := sw.SetIndex(true); err != nil {
		t.Fatalf("SetIndex: %v", err)
	}
	if parallel {
		if err := sw.SetConcurrency(4); err != nil {
			t.Fatalf("SetConcurrency: %v", err)
		}
	}
	want := make([]*tensor.Tensor, len(streamCases))
	for i, tc := range streamCases {
		c, err := New(tc.spec)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.spec, err)
		}
		x := mkStreamTensor(tc.shape...)
		if err := sw.WriteTensor(ctx, c, x); err != nil {
			t.Fatalf("WriteTensor(%q): %v", tc.spec, err)
		}
		data, err := c.Compress(x)
		if err != nil {
			t.Fatalf("Compress(%q): %v", tc.spec, err)
		}
		if want[i], _, err = DecodeBytes(data); err != nil {
			t.Fatalf("DecodeBytes(%q): %v", tc.spec, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), want
}

func requireSameTensor(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d elements, want %d", what, got.Len(), want.Len())
	}
	for j, v := range got.Data() {
		if v != want.Data()[j] {
			t.Fatalf("%s: value %d = %g, want %g", what, j, v, want.Data()[j])
		}
	}
}

// TestIndexFooterRoundTrip: an indexed stream decodes identically
// through the sequential reader (which verifies and skips the footer)
// and loads — not rebuilds — through OpenIndexedStream, whose seeks
// reproduce the container-path decodes bit for bit in any order.
func TestIndexFooterRoundTrip(t *testing.T) {
	ctx := context.Background()
	data, want := writeIndexedStream(t, false)

	// Sequential pass: footer skipped, records identical.
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewStreamReader: %v", err)
	}
	for i := range streamCases {
		if _, err := sr.Next(); err != nil {
			t.Fatalf("record %d: Next: %v", i, err)
		}
		out, err := sr.Decode(ctx)
		if err != nil {
			t.Fatalf("record %d: Decode: %v", i, err)
		}
		requireSameTensor(t, "sequential record", out, want[i])
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next after last record: %v, want io.EOF", err)
	}

	// Random-access pass, reverse order.
	ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("OpenIndexedStream: %v", err)
	}
	if ix.Rebuilt() {
		t.Fatal("footer present but index was rebuilt")
	}
	if ix.Len() != len(streamCases) {
		t.Fatalf("Len() = %d, want %d", ix.Len(), len(streamCases))
	}
	for i := ix.Len() - 1; i >= 0; i-- {
		hdr, err := ix.Header(i)
		if err != nil {
			t.Fatalf("Header(%d): %v", i, err)
		}
		if hdr.Elems() != want[i].Len() {
			t.Fatalf("Header(%d) claims %d elements, want %d", i, hdr.Elems(), want[i].Len())
		}
		out, err := ix.DecodeAt(ctx, i)
		if err != nil {
			t.Fatalf("DecodeAt(%d): %v", i, err)
		}
		requireSameTensor(t, "seeked record", out, want[i])
	}
	if _, err := ix.Header(ix.Len()); err == nil {
		t.Fatal("Header past the end did not error")
	}
	if _, err := ix.DecodeAt(ctx, -1); err == nil {
		t.Fatal("DecodeAt(-1) did not error")
	}
}

// TestIndexedParallelWriterByteIdentical: a writer with rounds of four
// and the index enabled produces byte-identical output to the serial
// writer — offsets accumulated as each round is emitted match the
// serial path's exactly.
func TestIndexedParallelWriterByteIdentical(t *testing.T) {
	serial, _ := writeIndexedStream(t, false)
	parallel, _ := writeIndexedStream(t, true)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel indexed stream (%d bytes) differs from serial (%d bytes)", len(parallel), len(serial))
	}
}

// TestIndexedMatchesSequential is the conformance gate check.sh runs:
// the indexed and sequential decodes of one stream must be
// tensor-identical, through both DecodeAt and a concurrent DecodeRange.
func TestIndexedMatchesSequential(t *testing.T) {
	ctx := context.Background()
	data, want := writeIndexedStream(t, false)
	ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("OpenIndexedStream: %v", err)
	}
	if err := ix.SetConcurrency(4); err != nil {
		t.Fatalf("SetConcurrency: %v", err)
	}
	outs, err := ix.DecodeRange(ctx, 0, ix.Len())
	if err != nil {
		t.Fatalf("DecodeRange: %v", err)
	}
	if len(outs) != len(want) {
		t.Fatalf("DecodeRange returned %d tensors, want %d", len(outs), len(want))
	}
	for i := range outs {
		requireSameTensor(t, "ranged record", outs[i], want[i])
	}
	// Sub-range, serial workers.
	if err := ix.SetConcurrency(1); err != nil {
		t.Fatal(err)
	}
	sub, err := ix.DecodeRange(ctx, 1, 3)
	if err != nil {
		t.Fatalf("DecodeRange(1,3): %v", err)
	}
	requireSameTensor(t, "sub-range record 1", sub[0], want[1])
	requireSameTensor(t, "sub-range record 2", sub[1], want[2])
	if empty, err := ix.DecodeRange(ctx, 2, 2); err != nil || empty != nil {
		t.Fatalf("empty range: %v tensors, err %v", empty, err)
	}
	if _, err := ix.DecodeRange(ctx, 3, 1); err == nil {
		t.Fatal("inverted range did not error")
	}
}

// countingReaderAt wraps an io.ReaderAt and counts calls and bytes.
type countingReaderAt struct {
	r     io.ReaderAt
	reads atomic.Int64
	bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// TestIndexedSeekIsO1 proves the acceptance criterion: on a
// 120-record stream, opening the index costs a bounded tail read and
// DecodeAt(i) reads O(record) bytes — no full-prefix scan.
func TestIndexedSeekIsO1(t *testing.T) {
	ctx := context.Background()
	const records = 120
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := sw.WriteTensor(ctx, c, mkStreamTensor(1, 1, 32, 32)); err != nil {
			t.Fatalf("WriteTensor %d: %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 100<<10 {
		t.Fatalf("stream only %d bytes; too small for the O(1) bound to mean anything", len(data))
	}

	cr := &countingReaderAt{r: bytes.NewReader(data)}
	ix, err := OpenIndexedStream(cr, int64(len(data)))
	if err != nil {
		t.Fatalf("OpenIndexedStream: %v", err)
	}
	if ix.Rebuilt() {
		t.Fatal("footer present but index was rebuilt")
	}
	if ix.Len() != records {
		t.Fatalf("Len() = %d, want %d", ix.Len(), records)
	}
	// Open cost: the 8-byte header probe, the 13-byte tail probe, and
	// the footer itself — not the records.
	footerBudget := int64(records*64 + 1024)
	if got := cr.bytes.Load(); got > footerBudget {
		t.Fatalf("open read %d bytes, budget %d (footer + probes only)", got, footerBudget)
	}
	if got := cr.reads.Load(); got > 4 {
		t.Fatalf("open issued %d reads, want at most 4", got)
	}

	// Seek cost, first and last record alike: proportional to one
	// record, far below the stream size.
	perRecord := int64(len(data)/records) + 8<<10
	for _, i := range []int{0, records / 2, records - 1} {
		cr.reads.Store(0)
		cr.bytes.Store(0)
		if _, err := ix.DecodeAt(ctx, i); err != nil {
			t.Fatalf("DecodeAt(%d): %v", i, err)
		}
		if got := cr.bytes.Load(); got > perRecord {
			t.Fatalf("DecodeAt(%d) read %d bytes, budget %d (stream is %d)", i, got, perRecord, len(data))
		}
	}
}

// TestIndexRebuildFallback: a footer-less stream and a stream whose
// footer CRC is corrupted both open via the rebuild walk and decode
// identically to the footer-loaded index.
func TestIndexRebuildFallback(t *testing.T) {
	ctx := context.Background()
	data, want := writeIndexedStream(t, false)

	// Footer-less: the plain writer's output.
	var plain bytes.Buffer
	sw := NewStreamWriter(&plain)
	sw.SetChunkSize(4 << 10)
	for _, tc := range streamCases {
		c, err := New(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteTensor(ctx, c, mkStreamTensor(tc.shape...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenIndexedStream(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatalf("OpenIndexedStream(footer-less): %v", err)
	}
	if !ix.Rebuilt() {
		t.Fatal("footer-less stream did not report a rebuilt index")
	}
	if ix.Len() != len(streamCases) {
		t.Fatalf("rebuilt Len() = %d, want %d", ix.Len(), len(streamCases))
	}
	for i := range streamCases {
		out, err := ix.DecodeAt(ctx, i)
		if err != nil {
			t.Fatalf("rebuilt DecodeAt(%d): %v", i, err)
		}
		requireSameTensor(t, "rebuilt-index record", out, want[i])
	}

	// Corrupt footer CRC: the loaded index is rejected, the rebuild
	// serves the (untouched) records.
	mut := append([]byte(nil), data...)
	s := binary.LittleEndian.Uint32(mut[len(mut)-9:])
	footOff := len(mut) - 1 - int(s)
	n := int(binary.LittleEndian.Uint32(mut[footOff+1:]))
	mut[footOff+5+n] ^= 0xFF // low CRC byte
	ix2, err := OpenIndexedStream(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatalf("OpenIndexedStream(corrupt footer CRC): %v", err)
	}
	if !ix2.Rebuilt() {
		t.Fatal("corrupt-CRC footer was not rejected in favor of a rebuild")
	}
	for i := range streamCases {
		out, err := ix2.DecodeAt(ctx, i)
		if err != nil {
			t.Fatalf("corrupt-footer DecodeAt(%d): %v", i, err)
		}
		requireSameTensor(t, "corrupt-footer record", out, want[i])
	}

	// Truncated mid-stream (no end marker): the rebuild must fail with a
	// truncation, not loop or misindex.
	if _, err := OpenIndexedStream(bytes.NewReader(data[:len(data)/2]), int64(len(data)/2)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream: err %v, want ErrTruncated", err)
	}
}

// spliceFooter replaces a pristine indexed stream's footer with one
// encoding the given entries, recomputing all footer framing.
func spliceFooter(t *testing.T, data []byte, entries []indexEntry) []byte {
	t.Helper()
	s := binary.LittleEndian.Uint32(data[len(data)-9:])
	footOff := len(data) - 1 - int(s)
	foot, err := encodeIndexFooter(entries)
	if err != nil {
		t.Fatalf("encodeIndexFooter: %v", err)
	}
	out := append([]byte(nil), data[:footOff]...)
	out = append(out, foot...)
	return append(out, recEnd)
}

// TestForgedIndexEntries: index entries that lie about the stream —
// under a perfectly valid footer CRC — must never produce a wrong
// tensor. Entries pointing at non-record bytes fail the seek-time
// header re-verification; entries pointing at a real record but
// claiming a different spec/shape/length fail the cross-check with
// ErrIndex; entries that fail static validation are discarded wholesale
// in favor of a rebuild.
func TestForgedIndexEntries(t *testing.T) {
	ctx := context.Background()
	data, want := writeIndexedStream(t, false)
	pristine, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	real := append([]indexEntry(nil), pristine.entries...)

	forge := func(mutate func(es []indexEntry)) *IndexedStream {
		t.Helper()
		es := make([]indexEntry, len(real))
		for i, e := range real {
			es[i] = e
			es[i].shape = append([]int(nil), e.shape...)
		}
		mutate(es)
		mut := spliceFooter(t, data, es)
		ix, err := OpenIndexedStream(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			t.Fatalf("forged stream failed to open: %v", err)
		}
		return ix
	}

	// Offset past a record's marker, by less than the bytes its header
	// and chunk framing add to its payload, so every entry still fits
	// before the next: the bytes there are not a CRC-valid record header.
	framing := real[2].off - real[1].off - real[1].payLen
	ix := forge(func(es []indexEntry) { es[1].off = real[1].off + framing/2 })
	if ix.Rebuilt() {
		t.Fatal("statically plausible forged footer unexpectedly rejected at load")
	}
	out, err := ix.DecodeAt(ctx, 1)
	if err == nil {
		requireSameTensor(t, "forged-offset record", out, want[1]) // fails: wrong tensor got through
		t.Fatal("forged offset decoded without error")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("offset")) {
		t.Fatalf("forged-offset error lacks a stream offset: %v", err)
	}
	// Untouched entries still decode.
	if out, err := ix.DecodeAt(ctx, 0); err != nil {
		t.Fatalf("DecodeAt(0) beside a forged sibling: %v", err)
	} else {
		requireSameTensor(t, "intact sibling", out, want[0])
	}

	// Offset of a different (real) record: header CRC passes, but the
	// entry's spec/shape disagree with the record found there.
	ix = forge(func(es []indexEntry) { es[0].off = real[1].off })
	// Static validation may or may not catch this (offsets must stay
	// increasing); entry 0 pointing at record 1 keeps order, so the
	// forgery survives to seek time.
	if !ix.Rebuilt() {
		_, err := ix.DecodeAt(ctx, 0)
		if !errors.Is(err, ErrIndex) {
			t.Fatalf("cross-record forgery: err %v, want ErrIndex", err)
		}
		if ErrorKind(err) != "index" {
			t.Fatalf("cross-record forgery: ErrorKind %q, want \"index\"", ErrorKind(err))
		}
	}

	// Wrong payload length against the right record.
	ix = forge(func(es []indexEntry) { es[2].payLen += 4 })
	if !ix.Rebuilt() {
		if _, err := ix.DecodeAt(ctx, 2); !errors.Is(err, ErrIndex) {
			t.Fatalf("forged payload length: err %v, want ErrIndex", err)
		}
	}

	// Wrong shape against the right record.
	ix = forge(func(es []indexEntry) { es[0].shape[0]++ })
	if !ix.Rebuilt() {
		if _, err := ix.DecodeAt(ctx, 0); !errors.Is(err, ErrIndex) {
			t.Fatalf("forged shape: err %v, want ErrIndex", err)
		}
	}

	// Statically invalid tables: rejected at load, rebuilt, and every
	// record still decodes correctly. Offsets out of order; an offset
	// into the previous record's payload, which leaves that record fewer
	// bytes than its payload; a payload length running past the next
	// record, or past the footer for the last one.
	last := len(real) - 1
	_, footOff, err := loadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(es []indexEntry){
		"out-of-order offsets":      func(es []indexEntry) { es[0].off, es[1].off = es[1].off, es[0].off },
		"offset inside a payload":   func(es []indexEntry) { es[1].off = real[0].off + 40 },
		"payload past the next":     func(es []indexEntry) { es[0].payLen = real[1].off - real[0].off + 1 },
		"payload past the footer":   func(es []indexEntry) { es[last].payLen = footOff - real[last].off + 1 },
		"payload beyond any stream": func(es []indexEntry) { es[1].payLen = maxPayload },
	} {
		ix = forge(mutate)
		if !ix.Rebuilt() {
			t.Fatalf("%s: forged footer accepted at load", name)
		}
		for i := range streamCases {
			out, err := ix.DecodeAt(ctx, i)
			if err != nil {
				t.Fatalf("%s: rebuilt-after-forgery DecodeAt(%d): %v", name, i, err)
			}
			requireSameTensor(t, "rebuilt-after-forgery record", out, want[i])
		}
	}
}

// TestIndexEntryPayloadBoundedByGap: the index parser rejects, with
// ErrIndex, an entry whose payload length runs past the next record's
// offset (the footer's, for the last entry), and accepts one that
// fills its gap exactly.
func TestIndexEntryPayloadBoundedByGap(t *testing.T) {
	data, _ := writeIndexedStream(t, false)
	entries, footOff, err := loadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	parse := func(es []indexEntry) error {
		t.Helper()
		foot, err := encodeIndexFooter(es)
		if err != nil {
			t.Fatal(err)
		}
		_, err = parseIndexBody(foot[5:len(foot)-12], footOff)
		return err
	}
	last := len(entries) - 1
	for i, end := range []int64{entries[1].off, footOff} {
		k := []int{0, last}[i]
		es := append([]indexEntry(nil), entries...)
		es[k].payLen = end - es[k].off
		if err := parse(es); err != nil {
			t.Fatalf("entry %d filling its gap exactly: %v", k, err)
		}
		es[k].payLen++
		if err := parse(es); !errors.Is(err, ErrIndex) {
			t.Fatalf("entry %d one byte past its gap: err %v, want ErrIndex", k, err)
		}
	}
}

// TestHeaderShapeNoAliasing: the Header returned by Next must not share
// its Shape slice with reader-internal state — a caller mutating it
// cannot redirect the subsequent Decode, in either reading mode.
func TestHeaderShapeNoAliasing(t *testing.T) {
	ctx := context.Background()
	for _, readAhead := range []bool{false, true} {
		name := "plain"
		if readAhead {
			name = "readahead"
		}
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			sw := NewStreamWriter(&buf)
			c, err := New("sz:eb=1e-3")
			if err != nil {
				t.Fatal(err)
			}
			x := mkStreamTensor(3, 5, 7)
			y := mkStreamTensor(64)
			if err := sw.WriteTensor(ctx, c, x); err != nil {
				t.Fatal(err)
			}
			if err := sw.WriteTensor(ctx, c, y); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if readAhead {
				if err := sr.SetReadAhead(ctx, 2); err != nil {
					t.Fatal(err)
				}
			}
			hdr, err := sr.Next()
			if err != nil {
				t.Fatal(err)
			}
			held := append([]int(nil), hdr.Shape...)
			hdr.Shape[0] = 1 << 20 // hostile caller scribbles on the header
			out, err := sr.Decode(ctx)
			if err != nil {
				t.Fatalf("Decode after header mutation: %v", err)
			}
			if out.Len() != 3*5*7 {
				t.Fatalf("decode redirected by caller-mutated header: %d elements", out.Len())
			}
			// The second Next must not scribble on the first header either.
			hdr2, err := sr.Next()
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Shape[0] != 1<<20 {
				t.Fatalf("later Next mutated caller-held shape: %v", hdr.Shape)
			}
			_ = held
			if len(hdr2.Shape) != 1 || hdr2.Shape[0] != 64 {
				t.Fatalf("second header shape %v, want [64]", hdr2.Shape)
			}
			if _, err := sr.Decode(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSkipUnderReadAheadStats: skipping records read ahead keeps the
// reader counters consistent — record counts are exact, and nothing
// double-counts or wedges, after EOF included.
func TestSkipUnderReadAheadStats(t *testing.T) {
	counted := countingOn(t)
	ctx := context.Background()
	const records = 8
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := sw.WriteTensor(ctx, c, mkStreamTensor(64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	before := telemetry.Default().Snapshot()
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.SetReadAhead(ctx, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := sr.Skip(); err != nil {
				t.Fatalf("Skip(%d): %v", i, err)
			}
		} else {
			if _, err := sr.Decode(ctx); err != nil {
				t.Fatalf("Decode(%d): %v", i, err)
			}
		}
	}
	atEOF := telemetry.Default().Snapshot()
	// Post-EOF calls must not move the counters.
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("Next after EOF: %v", err)
	}
	if err := sr.Skip(); err != io.EOF {
		t.Fatalf("Skip after EOF: %v", err)
	}
	if !counted {
		t.Skip("telemetry compiled out (acc_notelemetry)")
	}
	d := atEOF.Delta(before).Counters
	if got := d["stream.reader.records"]; got != records {
		t.Fatalf("records = %d, want %d", got, records)
	}
	if post := countersSince(atEOF); post["stream.reader.records"] != 0 {
		t.Fatal("post-EOF Next/Skip moved the record counter")
	}
}

// TestDecodeRangeCancellation: a cancelled context aborts the fan-out
// with a cancellation-kinded error.
func TestDecodeRangeCancellation(t *testing.T) {
	data, _ := writeIndexedStream(t, false)
	ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.DecodeRange(ctx, 0, ix.Len()); ErrorKind(err) != "canceled" {
		t.Fatalf("cancelled DecodeRange: err %v (kind %q), want canceled", err, ErrorKind(err))
	}
}

// TestStreamShapeOverflowRejected: a record header whose dims product
// overflows 32-bit arithmetic (but carries a valid CRC) must be
// rejected by the element bound, which accumulates in uint64 exactly so
// this cannot wrap on 386.
func TestStreamShapeOverflowRejected(t *testing.T) {
	spec := "sz:eb=1e-3"
	var buf bytes.Buffer
	buf.Write([]byte{0x41, 0x43, 0x43, 0x46, 2, 0, 0, 0})
	hdr := []byte{recTensor}
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(spec)))
	hdr = append(hdr, spec...)
	hdr = append(hdr, 2) // rank
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<24)
	hdr = binary.LittleEndian.AppendUint32(hdr, 1<<24) // product 2⁴⁸: wraps int32
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)     // payload length
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	buf.Write(hdr)
	buf.WriteByte(recEnd)
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sr.Next()
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("exceeds")) {
		t.Fatalf("overflowing shape: err %v, want element-bound rejection", err)
	}
}

// TestSetIndexLocking: SetIndex after the first record is refused, and
// a writer with the index off stays byte-identical to the pre-index
// format (the golden fixture pins this globally; here we pin the local
// writer object's behavior).
func TestSetIndexLocking(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteTensor(ctx, c, mkStreamTensor(64)); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetIndex(true); err == nil {
		t.Fatal("SetIndex after the first record did not error")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	// No footer: the tail is just the last chunk and the end marker.
	data := buf.Bytes()
	if len(data) >= 13 && binary.LittleEndian.Uint32(data[len(data)-5:]) == indexMagic {
		t.Fatal("index footer written without SetIndex")
	}
}

// TestSetConcurrencyDuringDecodeRange: SetConcurrency may be changed at
// any time, including while another goroutine is inside DecodeRange —
// under -race this fails if the worker cap is a plain field.
func TestSetConcurrencyDuringDecodeRange(t *testing.T) {
	ctx := context.Background()
	data, want := writeIndexedStream(t, false)
	ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := ix.SetConcurrency(i % 3); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 20; i++ {
		outs, err := ix.DecodeRange(ctx, 0, ix.Len())
		if err != nil {
			t.Fatalf("DecodeRange %d: %v", i, err)
		}
		for j := range outs {
			requireSameTensor(t, "ranged record", outs[j], want[j])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
