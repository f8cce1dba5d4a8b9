package codec

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file holds the StreamReader's read-ahead: rounds of records read
// on the caller's goroutine and decoded together on the plane pool, the
// reader's mirror of StreamWriter.flush. It changes no wire byte:
// records are parsed by the same cursor as the synchronous reader's.

// readRound is the read-ahead reader's job on the plane pool: pool
// index i decodes the round's record i in its slot. The reader keeps
// one and reuses its slots and their payload buffers, so a round
// allocates nothing to fan out.
type readRound struct {
	ctx    context.Context
	depth  int   // round size; 0 while read-ahead is off
	budget int64 // cap on a round's claimed uncompressed bytes
	// recs[:n] are the round's records, recs[at] the next one Next
	// serves. A round that stopped on a failure (io.EOF at the end
	// marker) ends in a slot holding only that error.
	recs  []roundRecord
	n, at int
	// ahead is the header of a record parsed but left for the next
	// round, because it would have passed the budget.
	ahead Header
	cur   *roundRecord // served by Next, pending Decode or Skip
	err   error        // sticky: the error Next served
}

// roundRecord is one record of a round: its header, codec and payload,
// the stream position its errors report, then its decode.
type roundRecord struct {
	hdr      Header
	impl     *codecImpl
	payload  []byte
	off, rec int64
	out      *tensor.Tensor
	err      error
}

// SetReadAhead makes the reader work in rounds of depth records: when
// Next finds no decoded record waiting, it reads the next round's
// records on the caller's goroutine, every header and chunk CRC
// checked, then decodes them together on the plane pool, one record per
// pool index, and serves them in stream order. A round also stops early
// when the next record would push its claimed uncompressed bytes past
// 64 MiB; a record larger than that is read in a round of its own.
// depth < 1 means 1. Must be called before the first Next.
//
// ctx governs the rounds: once it is cancelled, the next round fails
// with an error wrapping ctx.Err(), while records already decoded are
// still served. The ctx passed to Decode is still checked, but the
// decode work has already happened under this one. The error contract
// is the synchronous reader's: Next returns exactly io.EOF at a clean
// end of stream; a parse, CRC or decode failure at a record is served
// after the records before it, carries its stream offset, and is
// sticky.
func (sr *StreamReader) SetReadAhead(ctx context.Context, depth int) error {
	if sr.round.depth != 0 {
		return fmt.Errorf("codec: read-ahead already enabled")
	}
	if sr.rec != 0 || sr.cur != nil || sr.err != nil {
		return fmt.Errorf("codec: SetReadAhead must be called before the first Next")
	}
	sr.round = readRound{ctx: ctx, depth: max(depth, 1), budget: defaultMaxInFlightBytes}
	return nil
}

// readRound reads the next round's records and decodes them on the
// plane pool.
func (sr *StreamReader) readRound() {
	r := &sr.round
	r.n, r.at = 0, 0
	err := r.ctx.Err()
	if err != nil {
		err = fmt.Errorf("codec: read-ahead aborted: %w", err)
	}
	for claimed := int64(0); err == nil && r.n < r.depth; r.n++ {
		if sr.cur == nil {
			if r.ahead, err = sr.nextRecord(); err != nil {
				break
			}
		}
		if claimed += 4 * int64(sr.hdr.Elems()); r.n > 0 && claimed > r.budget {
			break
		}
		if r.n == len(r.recs) {
			r.recs = append(r.recs, roundRecord{})
		}
		p := &r.recs[r.n]
		p.hdr = r.ahead
		if p.impl, err = sr.codecs.lookup(sr.hdr.Spec); err != nil {
			err = sr.posw(fmt.Sprintf("record spec %q", sr.hdr.Spec), err)
			break
		}
		// The payload lands in the cursor's buffer, which grows only as
		// bytes arrive; the slot takes it and gives the cursor its own.
		var b []byte
		if b, err = sr.cur.next(sr.cur.len()); err != nil {
			break
		}
		p.payload, *sr.buf = b, p.payload[:0]
		sr.cur = nil
		p.off, p.rec = sr.off, int64(sr.rec)
	}
	tensor.ParallelPlanesWidth(r.n, r.depth, r)
	if err != nil {
		r.recs = append(r.recs[:r.n], roundRecord{err: err})
		r.n++
	}
}

// RunPlane decodes one record from its resident payload: an unstaged
// one straight through its family decoder, as decodeRecord does, a
// staged one through decodePayload.
func (r *readRound) RunPlane(i int) {
	p := &r.recs[i]
	start := telemetry.NowNanos()
	if p.impl.stage == "" {
		p.out, p.err = p.impl.b.decode(r.ctx, &memPayload{b: p.payload}, p.hdr.Shape)
	} else {
		p.out, p.err = p.impl.decodePayload(r.ctx, p.payload, p.hdr.Shape)
	}
	if p.err != nil {
		p.err = fmt.Errorf("codec: stream offset %d (record %d): decoding record: %w", p.off, p.rec, p.err)
		return
	}
	streamM.rDecoded.Add(uint64(p.out.SizeBytes()))
	streamM.rDecodeNs.ObserveSince(start)
}

// drop forgets the pending record.
func (r *readRound) drop() {
	if r.cur != nil {
		r.cur.out, r.cur = nil, nil
	}
}

// Next advances to the next record and returns its header; see
// nextRecord for the error contract. With read-ahead the record is
// served from the current round, read and decoded first if none is
// left, and an unconsumed previous record is dropped (its CRCs were
// verified when its round was read).
func (sr *StreamReader) Next() (Header, error) {
	r := &sr.round
	if r.depth == 0 {
		return sr.nextRecord()
	}
	if r.err != nil {
		return Header{}, r.err
	}
	r.drop()
	if r.at == r.n {
		sr.readRound()
	}
	p := &r.recs[r.at]
	r.at++
	if p.err != nil {
		r.err = p.err
		clear(r.recs) // the reader is done: drop what it holds
		return Header{}, r.err
	}
	r.cur = p
	return p.hdr, nil
}

// Decode decompresses the pending record into a tensor; see
// decodeRecord. With read-ahead the record was decoded with its round
// and the tensor is handed over.
func (sr *StreamReader) Decode(ctx context.Context) (*tensor.Tensor, error) {
	r := &sr.round
	if r.depth == 0 {
		return sr.decodeRecord(ctx)
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.cur == nil {
		return nil, fmt.Errorf("codec: no pending record (call Next first)")
	}
	out := r.cur.out
	r.drop()
	return out, nil
}

// Skip discards the pending record's payload; see skipRecord. With
// read-ahead the record was already read and CRC-verified with its
// round, so Skip just drops it.
func (sr *StreamReader) Skip() error {
	r := &sr.round
	if r.depth == 0 {
		return sr.skipRecord()
	}
	if r.err != nil {
		return r.err
	}
	r.drop()
	return nil
}
