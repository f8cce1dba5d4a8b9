package codec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/entropy"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file is the stage layer of the codec pipeline: composable
// payload transforms that ride behind any codec family. A spec string
// names a family plus zero or more stage suffixes —
//
//	dctc:cf=4+fse      DCT+Chop, then the shared entropy backend
//	lossless:bg=4+fse  byte-group transpose, then entropy
//
// — and the framing layer applies the stages in order on encode
// (payload → stage 1 → … → stage N) and in reverse on decode. Stages
// see opaque byte payloads only: they compose with every family, and a
// new family composes with every stage, without either knowing the
// other exists.
//
// On the wire, a staged spec rides in the same header field as before
// (the spec string IS the stage chain), and staged frames are marked so
// pre-stage readers fail cleanly instead of feeding an entropy-coded
// payload to a family decoder: v1 containers become version 3, and v2
// stream records use the 'S' marker in place of 'T'. Unstaged output is
// byte-identical to pre-stage writers.

// Stage is one composable payload transform. Implementations must be
// safe for concurrent use (the stream engines run them on worker
// pools) and are expected to use pooled scratch so steady-state
// encode/decode stays allocation-light.
type Stage interface {
	// Name is the stage's registry name ("fse").
	Name() string
	// Spec is the canonical spec fragment that rebuilds the stage.
	Spec() string
	// Forward transforms a payload on the encode path. It must not
	// retain or modify payload.
	Forward(ctx context.Context, payload []byte) ([]byte, error)
	// Inverse undoes Forward on the decode path. sizeHint is an upper
	// bound on the plausible output size for the tensor being decoded;
	// stages whose inverse can expand must fail rather than exceed it,
	// so corrupted frames die before the allocation, not after.
	Inverse(ctx context.Context, payload []byte, sizeHint int) ([]byte, error)
}

var (
	stageMu       sync.RWMutex
	stageRegistry = map[string]func() (Stage, error){}
)

// registerStage installs a stage builder; stages self-register in init.
func registerStage(name string, build func() (Stage, error)) {
	stageMu.Lock()
	defer stageMu.Unlock()
	if _, dup := stageRegistry[name]; dup {
		panic(fmt.Sprintf("codec: duplicate stage %q", name))
	}
	stageRegistry[name] = build
}

// StageNames lists the registered stage names, sorted.
func StageNames() []string {
	stageMu.RLock()
	defer stageMu.RUnlock()
	out := make([]string, 0, len(stageRegistry))
	for n := range stageRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// newStage resolves one stage token from a spec's "+" chain.
func newStage(token string) (Stage, error) {
	if strings.ContainsAny(token, ":=,") {
		return nil, fmt.Errorf("codec: stage %q: stages take no options", token)
	}
	stageMu.RLock()
	build, ok := stageRegistry[token]
	stageMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown stage %q (registered: %v)", token, StageNames())
	}
	return build()
}

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

// stageCut returns the index of the '+' that starts s's stage chain, or
// -1 when s has none.
func stageCut(s string) int {
	for i := 0; i < len(s); i++ {
		if isStageSep(s, i) {
			return i
		}
	}
	return -1
}

// splitSpecStages splits a spec string into its family half and stage
// tokens: "dctc:cf=4+fse" → ("dctc:cf=4", ["fse"]).
func splitSpecStages(s string) (string, []string) {
	cut := stageCut(s)
	if cut < 0 {
		return s, nil
	}
	base, rest := s[:cut], s[cut+1:]
	var stages []string
	start := 0
	for i := 0; i < len(rest); i++ {
		if isStageSep(rest, i) {
			stages = append(stages, rest[start:i])
			start = i + 1
		}
	}
	return base, append(stages, rest[start:])
}

// specHasStages reports whether a spec string carries a stage chain —
// the predicate that picks the staged container version and record
// marker. It must agree with ParseSpec's grammar, so it shares
// splitSpecStages' cut rather than searching for '+' directly; unlike a
// full split it allocates nothing, and it runs once per record.
func specHasStages(spec string) bool { return stageCut(spec) >= 0 }

// stagedSizeHint bounds the plausible pre-stage payload size for a
// tensor shape: no family's serialized payload comes near 8 bytes per
// float32 element, and small tensors get a fixed floor for framing.
// Stage inverses use it to reject decompression bombs.
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

// encodePayload runs the family encoder, then each stage forward. It is
// the compress-side metric choke point: every Compress, stream record
// encode, and staged round trip passes through here.
func (c *codecImpl) encodePayload(ctx context.Context, x *tensor.Tensor) ([]byte, error) {
	start := telemetry.NowNanos()
	payload, err := c.b.encode(ctx, x)
	if err != nil {
		c.m.countErr(err)
		return nil, err
	}
	for i, st := range c.chain {
		ts := telemetry.NowNanos()
		if seg, lanes := segmentsFor(c, st, i, len(payload)); lanes != nil {
			payload, err = seg.ForwardSegments(ctx, payload, lanes)
		} else {
			payload, err = st.Forward(ctx, payload)
		}
		if err != nil {
			c.m.countErr(err)
			return nil, fmt.Errorf("codec: stage %s forward: %w", st.Name(), err)
		}
		c.stageM[i].forwardNs.ObserveSince(ts)
	}
	c.m.compressCalls.Inc()
	c.m.compressNs.ObserveSince(start)
	c.m.inputBytes.Add(uint64(x.SizeBytes()))
	c.m.payloadBytes.Add(uint64(len(payload)))
	return payload, nil
}

// decodePayload runs the stages inverse in reverse order, then the
// family decoder — the decompress-side metric choke point.
func (c *codecImpl) decodePayload(ctx context.Context, payload []byte, shape []int) (*tensor.Tensor, error) {
	start := telemetry.NowNanos()
	inBytes := len(payload)
	if len(c.chain) > 0 {
		hint := stagedSizeHint(shape)
		var err error
		for i := len(c.chain) - 1; i >= 0; i-- {
			st := c.chain[i]
			ts := telemetry.NowNanos()
			if payload, err = st.Inverse(ctx, payload, hint); err != nil {
				c.m.countErr(err)
				return nil, fmt.Errorf("codec: stage %s inverse: %w", st.Name(), err)
			}
			c.stageM[i].inverseNs.ObserveSince(ts)
		}
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

// laneSegmenter is implemented by backends whose payload is a
// concatenation of lanes with distinct statistics (the lossless
// byte-group family). payloadSegments returns the cumulative end
// offsets of the lanes, the last equal to payloadLen.
type laneSegmenter interface {
	payloadSegments(payloadLen int) []int
}

// segmentedStage is implemented by stages that can restart their block
// statistics at given payload offsets. ForwardSegments encodes each
// [prev, bound) range as an independent block sequence; the output must
// decode through the stage's ordinary Inverse (entropy blocks are
// self-delimiting, so concatenated per-lane streams need no extra
// framing on the wire).
type segmentedStage interface {
	ForwardSegments(ctx context.Context, payload []byte, bounds []int) ([]byte, error)
}

// segmentsFor reports whether stage st should see a per-lane segmented
// payload: only the first stage in the chain (later stages see
// entropy-coded bytes whose lane structure is gone), only when both the
// backend and the stage opt in, and only when there is more than one
// lane.
func segmentsFor(c *codecImpl, st Stage, idx, payloadLen int) (segmentedStage, []int) {
	if idx != 0 {
		return nil, nil
	}
	seg, ok := st.(segmentedStage)
	if !ok {
		return nil, nil
	}
	ls, ok := c.b.(laneSegmenter)
	if !ok {
		return nil, nil
	}
	lanes := ls.payloadSegments(payloadLen)
	if len(lanes) < 2 {
		return nil, nil
	}
	return seg, lanes
}

// ---------------------------------------------------------------------
// The fse stage: the shared entropy backend as a payload transform.

// fseStage appends the internal/entropy coder as a final stage. It is
// stateless — all scratch is pooled inside the entropy package — so one
// instance serves every codec.
type fseStage struct{}

func init() {
	registerStage("fse", func() (Stage, error) { return fseStage{}, nil })
}

func (fseStage) Name() string { return "fse" }
func (fseStage) Spec() string { return "fse" }

// stageDst sizes a destination buffer for an entropy-coded payload:
// the coder never expands a block by more than its framing overhead
// (≤ 4 bytes per 64 KiB block plus slack for the last short block), so
// one up-front allocation replaces the append-growth ladder.
func stageDst(payloadLen int) []byte {
	return make([]byte, 0, payloadLen+4*(payloadLen>>16)+16)
}

func (fseStage) Forward(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return entropy.Compress(stageDst(len(payload)), payload), nil
}

func (fseStage) Inverse(ctx context.Context, payload []byte, sizeHint int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return entropy.DecompressCap(nil, payload, sizeHint)
}

// ---------------------------------------------------------------------
// The huf stage: the multi-symbol entropy fast path as a payload
// transform.

// hufStage appends the entropy coder through its huf-selecting encoder:
// per 64 KiB block the cheaper of raw/rle/fse/huf is chosen, so "+huf"
// is never worse than "+fse" by more than the per-block mode slack and
// decodes through the same entropy stream reader ("+huf" and "+fse"
// frames are mutually decodable at the block layer; the spec suffix
// records which encoder produced the stream). Stateless, like fseStage.
type hufStage struct{}

func init() {
	registerStage("huf", func() (Stage, error) { return hufStage{}, nil })
}

func (hufStage) Name() string { return "huf" }
func (hufStage) Spec() string { return "huf" }

func (hufStage) Forward(ctx context.Context, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return entropy.CompressHuf(stageDst(len(payload)), payload), nil
}

// ForwardSegments restarts block statistics at each lane boundary, so a
// byte-group payload gets per-lane tables instead of blocks straddling
// lanes with mixed distributions. The output is a plain entropy stream:
// Inverse decodes it with no knowledge of the lane cuts.
func (hufStage) ForwardSegments(ctx context.Context, payload []byte, bounds []int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := stageDst(len(payload) + 4*len(bounds))
	prev := 0
	for _, b := range bounds {
		out = entropy.CompressHuf(out, payload[prev:b])
		prev = b
	}
	return out, nil
}

func (hufStage) Inverse(ctx context.Context, payload []byte, sizeHint int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return entropy.DecompressCap(nil, payload, sizeHint)
}
