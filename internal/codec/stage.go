package codec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/entropy"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file is the codec pipeline's one optional entropy step. A spec
// string names a family plus at most one stage suffix —
//
//	dctc:cf=4+huf      DCT+Chop, then the shared entropy backend
//	lossless:bg=4+huf  byte-group transpose, then entropy per lane
//
// — and the framing layer entropy-codes the family's payload on encode
// and decodes it before the family decoder on decode. The entropy coder
// sees opaque bytes, so it composes with every family.
//
// "+huf" is the only stage a writer produces: per 64 KiB block it picks
// the cheapest of raw, rle, fse and huf, so it is never worse than an
// fse-only stream by more than the per-block mode slack. "+fse" names
// the retired fse-only encoder. Its streams use the same block format,
// so they still decode (through the same entropy decoder), but writing
// one fails with ErrBadSpec.
//
// On the wire, a staged spec rides in the same header field as an
// unstaged one, and staged frames are marked so pre-stage readers fail
// cleanly instead of feeding an entropy-coded payload to a family
// decoder: v1 containers become version 3, and v2 stream records use
// the 'S' marker in place of 'T'. Unstaged output is byte-identical to
// pre-stage writers.

// errFSEWrite is every write entry's answer for a "+fse" spec.
var errFSEWrite = markErr(ErrBadSpec, errors.New(`codec: "+fse" is decode-only; write "+huf", which emits an fse block wherever fse is smaller`))

// isStageSep reports whether the '+' at s[i] separates a stage suffix.
// Only a '+' followed by a letter splits, so '+' inside numeric option
// values ("sz:eb=1e+3", "…=1e+06") stays part of the value.
func isStageSep(s string, i int) bool {
	if s[i] != '+' || i+1 >= len(s) {
		return false
	}
	c := s[i+1]
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// stageCut returns the index of the '+' that starts s's stage suffix,
// or -1 when s has none.
func stageCut(s string) int {
	for i := 0; i < len(s); i++ {
		if isStageSep(s, i) {
			return i
		}
	}
	return -1
}

// splitSpecStage splits a spec string into its family half and its
// stage suffix: "dctc:cf=4+huf" → ("dctc:cf=4", "huf").
func splitSpecStage(s string) (string, string) {
	cut := stageCut(s)
	if cut < 0 {
		return s, ""
	}
	return s[:cut], s[cut+1:]
}

// specHasStages reports whether a spec string carries a stage — the
// predicate that picks the staged container version and record marker.
// It must agree with ParseSpec's grammar, so it shares
// splitSpecStage's cut rather than searching for '+' directly; it
// allocates nothing, and it runs once per record.
func specHasStages(spec string) bool { return stageCut(spec) >= 0 }

// stagedSizeHint bounds the plausible pre-stage payload size for a
// tensor shape: no family's serialized payload comes near 8 bytes per
// float32 element, and small tensors get a fixed floor for framing.
// The entropy decode uses it to reject decompression bombs.
func stagedSizeHint(shape []int) int {
	elems := 1
	for _, d := range shape {
		elems *= d
	}
	hint := 8*elems + (64 << 10)
	if hint > maxPayload {
		hint = maxPayload
	}
	return hint
}

// hufEncode appends the entropy-coded form of a family payload to dst.
// A lossless payload is bg byte-group lanes with distinct statistics,
// so each lane restarts the block sequence: per-lane tables instead of
// blocks straddling an exponent/mantissa boundary. Entropy blocks are
// self-delimiting, so the concatenated lanes decode as one stream. The
// coder never expands a block by more than its framing overhead (≤ 4
// bytes per 64 KiB block, plus slack for each lane's last short block),
// so dst grows once, up front, instead of along the append ladder.
func hufEncode(dst []byte, lanes int, payload []byte) []byte {
	n := len(payload) + 4*lanes
	dst = slices.Grow(dst, n+4*(n>>16)+16)
	lane := len(payload) / lanes // a lossless payload is 4 bytes per element: bg divides it
	for off := 0; off < len(payload); off += lane {
		dst = entropy.CompressHuf(dst, payload[off:off+lane])
	}
	return dst
}

// hufLen is the length hufEncode appends for the same payload, sized
// lane by lane with entropy.HufLen, coding nothing.
func hufLen(lanes int, payload []byte) int {
	n := 0
	lane := len(payload) / lanes
	for off := 0; off < len(payload); off += lane {
		n += entropy.HufLen(payload[off : off+lane])
	}
	return n
}

// groupBufs recycles the byte-group transpose of a staged lossless
// encode or fused round trip: the lanes are needed only until the
// entropy step, or its sizing, returns.
var groupBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodePayload runs the family encoder, then the entropy step. It is
// the compress-side choke point: every Compress, stream record encode,
// and staged round trip passes through here, so a "+fse" codec fails
// here before any byte reaches a sink.
//
// A staged codec appends its entropy output to dst, which the caller
// owns: nil for a fresh buffer, or a buffer kept across calls (a
// StreamWriter round slot). The family payload it codes is scratch,
// pooled for lossless. An unstaged codec returns the family encoder's
// own fresh payload and ignores dst.
func (c *codecImpl) encodePayload(ctx context.Context, dst []byte, x *tensor.Tensor) ([]byte, error) {
	if c.stage == "fse" {
		c.m.countErr(errFSEWrite)
		return nil, errFSEWrite
	}
	start := telemetry.NowNanos()
	lb, grouped := c.b.(*losslessBackend)
	var payload []byte
	var err error
	if c.stage == "huf" && grouped {
		bp := groupBufs.Get().(*[]byte)
		defer groupBufs.Put(bp)
		if payload, err = lb.group(ctx, *bp, x); err == nil {
			*bp = payload
		}
	} else {
		payload, err = c.b.encode(ctx, x)
	}
	if err != nil {
		c.m.countErr(err)
		return nil, err
	}
	if c.stage == "huf" {
		if err := ctx.Err(); err != nil {
			c.m.countErr(err)
			return nil, fmt.Errorf("codec: stage huf forward: %w", err)
		}
		ts := telemetry.NowNanos()
		lanes := 1
		if grouped {
			lanes = lb.bg
		}
		payload = hufEncode(dst, lanes, payload)
		stageM.forwardNs.ObserveSince(ts)
	}
	c.m.compressCalls.Inc()
	c.m.compressNs.ObserveSince(start)
	c.m.inputBytes.Add(uint64(x.SizeBytes()))
	c.m.payloadBytes.Add(uint64(len(payload)))
	return payload, nil
}

// stageBufs recycles the entropy step's decoded payloads across
// decodes: the buffer is needed only until the family decoder has
// copied the payload into its output tensor.
var stageBufs = sync.Pool{New: func() any { return new([]byte) }}

// decodePayload undoes the entropy step, then runs the family decoder
// — the decompress-side metric choke point. "+huf" and the legacy
// "+fse" payloads share one block format and one decoder. The entropy
// output lands in a pooled buffer, sized once from the block headers;
// no family decoder keeps a view of its payload past decode, so the
// buffer goes back to the pool when decode returns.
func (c *codecImpl) decodePayload(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error) {
	start := telemetry.NowNanos()
	inBytes := len(payload)
	if c.stage != "" {
		err := ctx.Err()
		ts := telemetry.NowNanos()
		if err == nil {
			bp := stageBufs.Get().(*[]byte)
			defer stageBufs.Put(bp)
			if payload, err = entropy.DecompressCap((*bp)[:0], payload, stagedSizeHint(shape)); err == nil {
				*bp = payload
			}
		}
		if err != nil {
			c.m.countErr(err)
			return nil, fmt.Errorf("codec: stage %s inverse: %w", c.stage, err)
		}
		stageM.inverseNs.ObserveSince(ts)
	}
	out, err := c.b.decode(ctx, &memPayload{b: payload}, shape)
	if err != nil {
		c.m.countErr(err)
		return nil, err
	}
	c.m.decompressCalls.Inc()
	c.m.decompressNs.ObserveSince(start)
	c.m.decodeBytes.Add(uint64(inBytes))
	c.m.outputBytes.Add(uint64(out.SizeBytes()))
	return out, nil
}
