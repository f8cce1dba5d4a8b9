package codec

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"

	"repro/internal/tensor"
)

// This file holds the StreamReader's read-ahead: one prefetch goroutine
// runs the parse→CRC-verify→decode pipeline ahead of the consumer, so
// record N+1 decodes while the caller is still working on record N. It
// changes no wire byte: records are parsed by the same cursor as the
// synchronous reader's.

// raEntry is one prefetched record: its header and decoded tensor, or
// the error that ended the stream (io.EOF for a clean end).
type raEntry struct {
	hdr Header
	out *tensor.Tensor
	err error
}

// readAhead is the prefetch state. Once enabled, the prefetch goroutine
// owns the StreamReader's parsing fields outright and the public
// methods serve from the queue, so there is no shared mutable state.
type readAhead struct {
	ch  chan raEntry
	cur *raEntry // delivered by Next, pending Decode/Skip
	err error    // consumer-side sticky error (io.EOF after clean end)
}

// SetReadAhead enables background prefetch: a goroutine parses,
// CRC-verifies and decodes up to depth records ahead of the consumer,
// overlapping record N+1's verify+decode with the caller's processing
// of record N. Must be called before the first Next.
//
// ctx governs the background decodes; cancelling it aborts the
// prefetcher (in-flight Next/Decode calls then return an error wrapping
// ctx.Err()). The ctx passed to Decode is still checked, but the decode
// work itself has already happened under this one. The error contract
// is unchanged: Next returns exactly io.EOF at a clean end of stream,
// and any other error is sticky.
func (sr *StreamReader) SetReadAhead(ctx context.Context, depth int) error {
	if sr.ra != nil {
		return fmt.Errorf("codec: read-ahead already enabled")
	}
	if sr.rec != 0 || sr.cur != nil || sr.err != nil {
		return fmt.Errorf("codec: SetReadAhead must be called before the first Next")
	}
	if depth < 1 {
		depth = 1
	}
	sr.ra = &readAhead{ch: make(chan raEntry, depth)}
	go pprof.Do(context.Background(), pprof.Labels("acc_role", "stream-readahead"), func(context.Context) { sr.prefetch(ctx) })
	return nil
}

// prefetch runs the parse→decode loop ahead of the consumer, ending on
// the first error (io.EOF included) or when ctx is cancelled.
func (sr *StreamReader) prefetch(ctx context.Context) {
	defer close(sr.ra.ch)
	for {
		hdr, err := sr.nextRecord()
		if err == nil {
			if cerr := ctx.Err(); cerr != nil {
				err = fmt.Errorf("codec: read-ahead aborted: %w", cerr)
			}
		}
		var out *tensor.Tensor
		if err == nil {
			out, err = sr.decodeRecord(ctx)
			if err == nil {
				select {
				case sr.ra.ch <- raEntry{hdr: hdr, out: out}:
					continue
				case <-ctx.Done():
					return
				}
			}
		}
		select {
		case sr.ra.ch <- raEntry{err: err}:
		case <-ctx.Done():
		}
		return
	}
}

// Next advances to the next record and returns its header; see
// nextRecord for the error contract. In read-ahead mode the record —
// already decoded in the background — is served from the prefetch
// queue, and an unconsumed previous record is dropped (its CRCs were
// verified during the prefetch decode).
func (sr *StreamReader) Next() (Header, error) {
	if sr.ra == nil {
		return sr.nextRecord()
	}
	if sr.ra.err != nil {
		return Header{}, sr.ra.err
	}
	sr.ra.cur = nil
	// A non-empty queue means the prefetcher stayed ahead of the
	// consumer; an empty one means this Next will block on it.
	if len(sr.ra.ch) > 0 {
		streamM.rRAHits.Inc()
	} else {
		streamM.rRAMiss.Inc()
	}
	ent, ok := <-sr.ra.ch
	if !ok {
		// Prefetcher aborted by its context before reporting an error.
		sr.ra.err = fmt.Errorf("codec: read-ahead aborted: %w", context.Canceled)
		return Header{}, sr.ra.err
	}
	if ent.err != nil {
		sr.ra.err = ent.err
		if ent.err == io.EOF {
			return Header{}, io.EOF
		}
		return Header{}, ent.err
	}
	sr.ra.cur = &ent
	return ent.hdr, nil
}

// Decode decompresses the pending record into a tensor; see
// decodeRecord. In read-ahead mode the decode already happened in the
// background and the tensor is handed over directly.
func (sr *StreamReader) Decode(ctx context.Context) (*tensor.Tensor, error) {
	if sr.ra == nil {
		return sr.decodeRecord(ctx)
	}
	if sr.ra.err != nil {
		return nil, sr.ra.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sr.ra.cur == nil {
		return nil, fmt.Errorf("codec: no pending record (call Next first)")
	}
	out := sr.ra.cur.out
	sr.ra.cur = nil
	return out, nil
}

// Skip discards the pending record's payload; see skipRecord. In
// read-ahead mode the record was already decoded and CRC-verified, so
// Skip just drops it.
func (sr *StreamReader) Skip() error {
	if sr.ra == nil {
		return sr.skipRecord()
	}
	if sr.ra.err != nil {
		return sr.ra.err
	}
	sr.ra.cur = nil
	return nil
}
