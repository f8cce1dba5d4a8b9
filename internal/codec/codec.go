// Package codec unifies the repository's four codec families — the
// paper's DCT+Chop compressor (core), the fixed-rate ZFP-style baseline
// (zfp), the error-bounded SZ-style baseline (sz), and the JPEG-style
// quantization pipeline (jpegq) — behind one interface, one spec-string
// registry, and one self-describing container format.
//
// A codec is named by a spec string, "family:key=val,key=val,flag":
//
//	dctc:cf=4,s=2,sg          DCT+Chop, chop factor 4, serialization 2,
//	                          scatter/gather triangle retention
//	dctc:cf=3,transform=zfp4  DCT+Chop over the ZFP 4×4 block transform
//	zfp:rate=8                fixed-rate ZFP-style at 8 bits/value
//	sz:eb=1e-3                error-bounded SZ-style, |err| ≤ 1e-3
//	jpegq:q=50                JPEG-style pipeline at quality factor 50
//
// Compress output is a framed container (see container.go) carrying the
// spec and the tensor shape, so DecodeBytes reconstructs the tensor
// from the bytes alone — no out-of-band configuration. Multi-tensor
// streams use the ACCF v2 record format (see stream.go).
package codec

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Codec is one configured compressor. Implementations are safe for
// concurrent use.
type Codec interface {
	// Name is the codec family ("dctc", "zfp", "sz", "jpegq").
	Name() string
	// Spec is the canonical spec string that rebuilds this codec.
	Spec() string
	// Ratio is the nominal compression ratio; 0 means data-dependent
	// (unknown until measured).
	Ratio() float64
	// Compress encodes x into a self-describing container.
	Compress(x *tensor.Tensor) ([]byte, error)
	// Decompress reconstructs a tensor from a container produced by any
	// codec of the same family; shape and options come from the header.
	Decompress(data []byte) (*tensor.Tensor, error)
	// RoundTrip compresses then decompresses x, returning the
	// reconstruction and the compressed payload size in bytes — the
	// framed payload length, as RoundTripInto reports it.
	RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error)
}

// backend is the family-specific half of a codec: raw payload encode /
// decode, with framing handled by the shared wrapper. A backend has one
// decode, fed by a payloadSource: a resident payload (containers,
// staged payloads, the serialize round trip) and a v2 record's chunked
// payload reader take the same path through the same checks, and the
// plane-framed families read their frame through the one
// readPlaneFrame. Both halves honor the context for mid-batch
// cancellation.
type backend interface {
	name() string
	ratio() float64
	encode(ctx context.Context, x *tensor.Tensor) ([]byte, error)
	decode(ctx context.Context, src payloadSource, shape []int) (*tensor.Tensor, error)
}

// RoundTripInto compresses and decompresses x into dst, which must
// have x's element count, returning the compressed payload size — the
// length of the framed payload Compress would carry. dst may be x
// itself, round-tripping it in place, but must not otherwise overlap
// it. Where a codec has a fused path it codes no stream: an unstaged
// plane family (zfp, jpegq, sz) runs the plane engine's fused round
// trip for every shape it lays out, jpegq and sz sizing their vle
// streams without coding them; lossless, bare or "+huf", copies x and
// sizes its payload, the "+huf" lanes with entropy.HufLen. Fused paths
// allocate nothing at steady state on one worker and tick
// codec.<spec>.roundtrip_fused_calls. A shape the family refuses fails
// with the error encode gives. dctc and every other staged codec
// serialize, decode and copy. A refused in-place round trip leaves x
// untouched on every path.
func RoundTripInto(c Codec, dst, x *tensor.Tensor) (int, error) {
	if dst.Len() != x.Len() {
		return 0, fmt.Errorf("codec: RoundTripInto dst holds %d values, x holds %d", dst.Len(), x.Len())
	}
	impl, ok := c.(*codecImpl)
	if !ok {
		return 0, fmt.Errorf("codec: %T is not a registry codec", c)
	}
	start := telemetry.NowNanos()
	n, fused, err := impl.fusedRoundTrip(dst, x)
	switch {
	case err != nil:
		impl.m.countErr(err)
		return 0, err
	case fused:
		// The fused paths bypass encodePayload/decodePayload, so they
		// are counted here; the serialize path counts at those choke
		// points and must not double-count.
		impl.m.inputBytes.Add(uint64(x.SizeBytes()))
		impl.m.payloadBytes.Add(uint64(n))
		impl.m.roundTripFusedCalls.Inc()
	default:
		ctx := context.Background()
		payload, err := impl.encodePayload(ctx, nil, x)
		if err != nil {
			return 0, err
		}
		out, err := impl.decodePayload(ctx, payload, x.Shape())
		if err != nil {
			return 0, err
		}
		copy(dst.Data(), out.Data())
		n = len(payload)
	}
	impl.m.roundTripCalls.Inc()
	impl.m.roundTripNs.ObserveSince(start)
	return n, nil
}

// fusedRoundTrip runs RoundTripInto's fused path when the codec has
// one, reporting whether it did: the plane engine for an unstaged
// plane family, the copy-and-size round trip for lossless bare or
// "+huf". The decode-only "+fse" has none, so its round trip fails
// where its encode does.
func (c *codecImpl) fusedRoundTrip(dst, x *tensor.Tensor) (n int, fused bool, err error) {
	switch b := c.b.(type) {
	case planeFamily:
		if c.stage == "" {
			n, err = planeRoundTrip(b, dst, x)
			return n, true, err
		}
	case *losslessBackend:
		if c.stage != "fse" {
			n, err = b.roundTrip(dst, x, c.stage == "huf")
			return n, true, err
		}
	}
	return 0, false, nil
}

// codecImpl frames a backend plus its optional entropy stage behind
// the Codec interface (see stage.go); without a stage every path — and
// every wire byte — is identical to the pre-stage codec.
type codecImpl struct {
	spec  string
	b     backend
	stage string // "", "huf", or the decode-only "fse"

	// Metric handles, resolved once at construction (see metrics.go).
	// Nil on hand-constructed impls in tests: every recording call is
	// nil-safe, so unwired codecs simply record nothing.
	m *codecMetrics
}

func (c *codecImpl) Name() string   { return c.b.name() }
func (c *codecImpl) Spec() string   { return c.spec }
func (c *codecImpl) Ratio() float64 { return c.b.ratio() }

func (c *codecImpl) Compress(x *tensor.Tensor) ([]byte, error) {
	payload, err := c.encodePayload(context.Background(), nil, x)
	if err != nil {
		return nil, err
	}
	return appendContainer(nil, c.spec, x.Shape(), payload)
}

func (c *codecImpl) Decompress(data []byte) (*tensor.Tensor, error) {
	hdr, payload, err := readContainerBytes(data)
	if err != nil {
		return nil, err
	}
	spec, err := ParseSpec(hdr.Spec)
	if err != nil {
		return nil, fmt.Errorf("codec: container spec: %w", err)
	}
	if spec.Family != c.Name() {
		return nil, fmt.Errorf("codec: container holds %q data, this codec is %q (use DecodeBytes for spec-directed decoding)", spec.Family, c.Name())
	}
	// Honor the container's own options (self-describing wins over the
	// instance's): rebuild when the specs differ.
	impl := c
	if hdr.Spec != c.spec {
		other, err := New(hdr.Spec)
		if err != nil {
			return nil, fmt.Errorf("codec: rebuilding from container spec %q: %w", hdr.Spec, err)
		}
		impl = other.(*codecImpl)
	}
	return impl.decodePayload(context.Background(), payload, hdr.Shape)
}

// RoundTrip is RoundTripInto into a freshly allocated tensor of x's
// shape.
func (c *codecImpl) RoundTrip(x *tensor.Tensor) (*tensor.Tensor, int, error) {
	out := tensor.New(x.Shape()...)
	n, err := RoundTripInto(c, out, x)
	if err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// builder constructs a family's backend from parsed options.
type builder func(o *Options) (backend, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]builder{}
)

// register installs a family builder; families self-register in init.
func register(family string, build builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[family]; dup {
		panic(fmt.Sprintf("codec: duplicate family %q", family))
	}
	registry[family] = build
}

// Families lists the registered codec families, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for f := range registry {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// New builds a codec from a spec string via the registry. Option errors
// name the offending key; every failure carries the ErrBadSpec kind.
func New(spec string) (Codec, error) {
	c, err := newCodec(spec)
	if err != nil {
		return nil, markErr(ErrBadSpec, err)
	}
	return c, nil
}

func newCodec(spec string) (Codec, error) {
	parsed, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	registryMu.RLock()
	build, ok := registry[parsed.Family]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown family %q (registered: %v)", parsed.Family, Families())
	}
	opts := parsed.options()
	b, err := build(opts)
	if err != nil {
		return nil, err
	}
	if err := opts.finish(); err != nil {
		return nil, err
	}
	impl := &codecImpl{spec: canonicalSpec(parsed.Family, b, parsed.Stage), b: b, stage: parsed.Stage}
	impl.m = metricsFor(impl.spec)
	return impl, nil
}

// ValidKeys reports the option keys a family's builder consults — the
// key list CLI error messages print next to a rejected spec. It runs
// the builder over an empty option set and collects what it read.
func ValidKeys(family string) ([]string, error) {
	registryMu.RLock()
	build, ok := registry[family]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown family %q (registered: %v)", family, Families())
	}
	opts := Spec{Family: family, kv: map[string]string{}}.options()
	if _, err := build(opts); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(opts.used))
	for k := range opts.used {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// canonicalizer lets a backend print its canonical option string.
type canonicalizer interface{ canonical() string }

// canonicalSpec renders the spec that exactly rebuilds b and its
// stage.
func canonicalSpec(family string, b backend, stage string) string {
	s := family
	if c, ok := b.(canonicalizer); ok {
		if opts := c.canonical(); opts != "" {
			s = family + ":" + opts
		}
	}
	if stage != "" {
		s += "+" + stage
	}
	return s
}

// DecodeBytes reconstructs the tensor of the one container data holds,
// with the codec resolved entirely from the header — the fully
// self-describing path. Trailing bytes after the container are
// rejected. It returns the tensor and the codec that decoded it.
func DecodeBytes(data []byte) (*tensor.Tensor, Codec, error) {
	hdr, payload, err := readContainerBytes(data)
	if err != nil {
		return nil, nil, err
	}
	c, err := New(hdr.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("codec: container spec %q: %w", hdr.Spec, err)
	}
	out, err := c.(*codecImpl).decodePayload(context.Background(), payload, hdr.Shape)
	if err != nil {
		return nil, nil, err
	}
	return out, c, nil
}

// DecodeFile is DecodeBytes over a container file on disk — the CLI
// decompress mode. The file must hold exactly one container
// (multi-tensor files are ACCF v2 streams — use NewStreamReader). A v1
// container's payload is fully resident during decode anyway, so
// reading the file whole costs no extra peak memory.
func DecodeFile(path string) (*tensor.Tensor, Codec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return DecodeBytes(data)
}
