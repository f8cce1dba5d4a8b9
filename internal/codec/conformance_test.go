package codec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/vle"
	"repro/internal/zfp"
)

// conformanceSpecs is every registered family/variant the suite
// round-trips, with a minimum reconstruction PSNR (dB) on the smooth
// deterministic batch and an optional absolute error bound.
var conformanceSpecs = []struct {
	spec    string
	minPSNR float64
	maxErr  float64 // 0 = no pointwise bound
}{
	{"dctc:cf=4", 20, 0},
	{"dctc:cf=4,sg", 15, 0},
	{"dctc:cf=4,s=2", 20, 0},
	{"dctc:cf=3,transform=zfp4", 15, 0},
	{"zfp:rate=8", 30, 0},
	{"sz:eb=1e-3", 40, 1e-3},
	{"jpegq:q=50", 20, 0},
	// Staged variants: the entropy stage must be error-transparent, so
	// each inherits its base spec's floors.
	{"dctc:cf=4+huf", 20, 0},
	{"zfp:rate=8+huf", 30, 0},
	{"sz:eb=1e-3+huf", 40, 1e-3},
	{"jpegq:q=50+huf", 20, 0},
	// …and at a second option point per family.
	{"dctc:cf=4,sg+huf", 15, 0},
	{"zfp:rate=16+huf", 30, 0},
	{"sz:eb=1e-2+huf", 30, 1e-2},
	{"jpegq:q=90+huf", 20, 0},
	// Bit-exact family: any finite floor holds; 140 dB is far above
	// every lossy codec and PSNR may legitimately return +Inf here.
	{"lossless:bg=4+huf", 140, 0},
}

// conformanceBatch builds the deterministic smooth [2,3,16,16] batch
// (values in [0,1]) every spec must round-trip: low-frequency sinusoids
// so the lossy transforms retain most of the energy, plus a small
// deterministic ripple so no plane is constant.
func conformanceBatch() *tensor.Tensor {
	const bd, ch, n = 2, 3, 16
	x := tensor.New(bd, ch, n, n)
	d := x.Data()
	idx := 0
	for s := 0; s < bd; s++ {
		for c := 0; c < ch; c++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := 0.5 +
						0.3*math.Sin(2*math.Pi*float64(i)/float64(n)+float64(s)) +
						0.15*math.Cos(2*math.Pi*float64(j)/float64(n)+float64(c)) +
						0.02*math.Sin(float64(i*j)/7)
					if v < 0 {
						v = 0
					}
					if v > 1 {
						v = 1
					}
					d[idx] = float32(v)
					idx++
				}
			}
		}
	}
	return x
}

// TestConformanceRoundTrip round-trips the same deterministic batch
// through every registered spec, asserting shape fidelity, per-codec
// error bounds, and container re-decodability from the bytes alone.
func TestConformanceRoundTrip(t *testing.T) {
	x := conformanceBatch()
	for _, tc := range conformanceSpecs {
		tc := tc
		t.Run(tc.spec, func(t *testing.T) {
			t.Parallel()
			c, err := New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}

			// Container path: Compress → self-describing Decode.
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			back, decoded, err := DecodeBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.Spec() != c.Spec() {
				t.Errorf("container decoded with spec %q, compressed with %q", decoded.Spec(), c.Spec())
			}
			if !back.SameShape(x) {
				t.Fatalf("shape %v, want %v", back.Shape(), x.Shape())
			}
			psnr := metrics.PSNR(x, back)
			if psnr < tc.minPSNR {
				t.Errorf("PSNR %.2f dB below conformance floor %.2f dB", psnr, tc.minPSNR)
			}
			if tc.maxErr > 0 {
				if maxe := metrics.MaxError(x, back); maxe > tc.maxErr*(1+1e-6) {
					t.Errorf("max error %g exceeds bound %g", maxe, tc.maxErr)
				}
			}

			// Re-decodability: the same container decodes again (the
			// reader must not consume shared state).
			again, _, err := DecodeBytes(data)
			if err != nil {
				t.Fatalf("second decode: %v", err)
			}
			if !again.Equal(back) {
				t.Error("second decode differs from first")
			}

			// Instance Decompress agrees with registry Decode.
			viaInstance, err := c.Decompress(data)
			if err != nil {
				t.Fatal(err)
			}
			if !viaInstance.Equal(back) {
				t.Error("Codec.Decompress differs from registry Decode")
			}

			// RoundTrip (which may take a serialization-free fast path)
			// matches the container path.
			rt, bytes, err := c.RoundTrip(x)
			if err != nil {
				t.Fatal(err)
			}
			if !rt.SameShape(x) {
				t.Fatalf("RoundTrip shape %v", rt.Shape())
			}
			if bytes <= 0 || bytes >= x.SizeBytes() {
				t.Errorf("RoundTrip payload %d bytes vs original %d", bytes, x.SizeBytes())
			}
			if !rt.AllClose(back, 1e-5) {
				t.Errorf("RoundTrip fast path diverges from container path (max diff %g)", rt.MaxAbsDiff(back))
			}
		})
	}
}

// TestStageBackendEquivalence pairs each family's bare spec against
// its "+huf" spec: the entropy stage is a lossless payload transform,
// so the decoded tensors must be bit-identical — equal to each other
// and (for the lossless family) to the original, arbitrary NaN payloads
// included. Retired "+fse" payloads are held to the same bits by
// TestGoldenFSEDecodes.
func TestStageBackendEquivalence(t *testing.T) {
	smooth := conformanceBatch()

	// A hostile bit-pattern tensor for the lossless family: quiet and
	// signaling NaN payloads, ±Inf, ±0, denormals, and trained-weight-
	// like values.
	hostile := tensor.New(2, 3, 16, 16)
	hd := hostile.Data()
	patterns := []uint32{
		0x7FC00001, 0xFFC0BEEF, 0x7F800001, 0x7F800000, 0xFF800000,
		0x80000000, 0x00000000, 0x00000001, 0x807FFFFF, 0x3F800000,
	}
	for i := range hd {
		if i%3 == 0 {
			hd[i] = math.Float32frombits(patterns[i%len(patterns)] ^ uint32(i)<<13)
		} else {
			hd[i] = float32(math.Sin(float64(i)/17)) * 1e-3
		}
	}

	cases := []struct {
		base string
		x    *tensor.Tensor
		// exact: decoded bits must equal the input bits (lossless family).
		exact bool
	}{
		{"dctc:cf=4", smooth, false},
		{"zfp:rate=8", smooth, false},
		{"sz:eb=1e-3", smooth, false},
		{"jpegq:q=50", smooth, false},
		{"lossless:bg=1", hostile, true},
		{"lossless:bg=2", hostile, true},
		{"lossless:bg=4", hostile, true},
	}
	for _, tc := range cases {
		t.Run(tc.base, func(t *testing.T) {
			decode := func(stage string) *tensor.Tensor {
				c, err := New(tc.base + stage)
				if err != nil {
					t.Fatal(err)
				}
				data, err := c.Compress(tc.x)
				if err != nil {
					t.Fatalf("%s%s compress: %v", tc.base, stage, err)
				}
				back, _, err := DecodeBytes(data)
				if err != nil {
					t.Fatalf("%s%s decode: %v", tc.base, stage, err)
				}
				return back
			}
			bare, viaHUF := decode(""), decode("+huf")
			bb, hb := bare.Data(), viaHUF.Data()
			for i := range bb {
				if math.Float32bits(bb[i]) != math.Float32bits(hb[i]) {
					t.Fatalf("element %d: bare decodes %08x, +huf decodes %08x", i, math.Float32bits(bb[i]), math.Float32bits(hb[i]))
				}
			}
			if tc.exact {
				xd := tc.x.Data()
				for i := range xd {
					if math.Float32bits(xd[i]) != math.Float32bits(hb[i]) {
						t.Fatalf("element %d: input bits %08x came back %08x", i, math.Float32bits(xd[i]), math.Float32bits(hb[i]))
					}
				}
			}
		})
	}
}

// TestConformanceNonPlaneShapes round-trips shapes that are not n×n
// image batches through the families that support them (jpegq is
// image-only and must say so).
func TestConformanceNonPlaneShapes(t *testing.T) {
	shapes := [][]int{{100}, {7, 13}, {3, 5, 9}}
	// Flat-packed rows break the 2-D correlation DCT+Chop exploits, so
	// its floor is looser than the pointwise-bounded codecs'.
	floors := map[string]float64{"dctc:cf=4": 8, "dctc:cf=4,sg": 8, "zfp:rate=8": 15, "sz:eb=1e-3": 40}
	for _, spec := range []string{"dctc:cf=4", "dctc:cf=4,sg", "zfp:rate=8", "sz:eb=1e-3"} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range shapes {
			x := tensor.New(shape...)
			for i := range x.Data() {
				x.Data()[i] = float32(math.Sin(float64(i) / 9))
			}
			data, err := c.Compress(x)
			if err != nil {
				t.Fatalf("%s %v: %v", spec, shape, err)
			}
			back, _, err := DecodeBytes(data)
			if err != nil {
				t.Fatalf("%s %v: %v", spec, shape, err)
			}
			if !back.SameShape(x) {
				t.Fatalf("%s: shape %v, want %v", spec, back.Shape(), shape)
			}
			if psnr := metrics.PSNR(x, back); psnr < floors[spec] {
				t.Errorf("%s %v: PSNR %.2f dB below floor %.1f", spec, shape, psnr, floors[spec])
			}
		}
	}

	jq, err := New("jpegq:q=50")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jq.Compress(tensor.New(7, 13)); err == nil || !strings.Contains(err.Error(), "[BD,C,n,n]") {
		t.Errorf("jpegq non-image error: %v", err)
	}
}

// TestDCTCFlatMatchesPaddedPlanes holds dctc's flat path to its
// definition: a rank-1 tensor round-trips exactly as core's compressor
// round-trips its values packed row-major into zero-padded planeN×planeN
// planes, bit for bit, at lengths below, at and across a plane.
func TestDCTCFlatMatchesPaddedPlanes(t *testing.T) {
	c, err := New("dctc:cf=4,planen=16")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := core.NewCompressor(core.Config{ChopFactor: 4, Serialization: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(1)
	for _, n := range []int{1, 7, 256, 300, 1000} {
		x := r.Uniform(-1, 1, n)
		got, _, err := c.RoundTrip(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		packed := tensor.New((n+255)/256, 1, 16, 16)
		copy(packed.Data(), x.Data())
		want, err := comp.RoundTrip(packed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.SameShape(x) {
			t.Fatalf("n=%d: shape %v", n, got.Shape())
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("n=%d value %d: %g, padded planes give %g", n, i, v, want.Data()[i])
			}
		}
	}
}

// TestDecompressFamilyMismatch verifies a codec refuses containers from
// another family but accepts other options of its own family.
func TestDecompressFamilyMismatch(t *testing.T) {
	x := conformanceBatch()
	z, _ := New("zfp:rate=8")
	s, _ := New("sz:eb=1e-2")
	data, err := z.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decompress(data); err == nil || !strings.Contains(err.Error(), `"zfp"`) {
		t.Errorf("family mismatch: %v", err)
	}
	// Same family, different options: header's options win.
	z16, _ := New("zfp:rate=16")
	back, err := z16.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameShape(x) {
		t.Fatal("shape lost")
	}
	if psnr := metrics.PSNR(x, back); psnr < 30 {
		t.Errorf("self-describing decode ignored header rate (PSNR %.2f)", psnr)
	}
}

// TestDecodeFile exercises the io.Reader path end to end on disk —
// exactly what acc-compress decompress mode does.
func TestDecodeFile(t *testing.T) {
	x := conformanceBatch()
	c, err := New("dctc:cf=4,s=2,sg")
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "batch.accf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, decoded, err := DecodeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Spec() != c.Spec() || !back.SameShape(x) {
		t.Fatalf("spec %q shape %v", decoded.Spec(), back.Shape())
	}
}

// TestSZRefusesWideRowsOnce: vle holds a block size in 16 bits and sz
// codes each row as one block, so sz's layout refuses a row wider than
// vle.MaxFlatBlock before anything is quantized. Compress,
// StreamWriter.WriteTensor and RoundTripInto refuse it with the one
// error, which names the limit.
func TestSZRefusesWideRowsOnce(t *testing.T) {
	c, err := New("sz:eb=1e-3")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("sz: row of 70000 values is wider than a vle block (%d)", vle.MaxFlatBlock)
	for _, shape := range [][]int{{70000}, {2, 70000}} {
		x := tensor.New(shape...)
		_, cerr := c.Compress(x)
		sw := NewStreamWriter(io.Discard)
		if err := sw.SetConcurrency(1); err != nil {
			t.Fatal(err)
		}
		werr := sw.WriteTensor(context.Background(), c, x)
		_, rerr := RoundTripInto(c, tensor.New(shape...), x)
		for name, err := range map[string]error{"Compress": cerr, "WriteTensor": werr, "RoundTripInto": rerr} {
			if err == nil || err.Error() != want {
				t.Errorf("%v: %s error %v, want %q", shape, name, err, want)
			}
		}
	}
}

// TestZfpRefusesNonFinite: zfp has no fixed-point value for NaN or
// ±Inf, so Compress, StreamWriter.WriteTensor, RoundTripInto (into a
// second tensor and in place) and RoundTrip refuse a tensor holding
// one with zfp.ErrNonFinite, on the planar and the padded layout, bare
// and staged. A refused in-place round trip leaves x bit-identical.
// The finite extremes — 1e38, ±MaxFloat32, a denormal and −0 — code on
// every one of those paths.
func TestZfpRefusesNonFinite(t *testing.T) {
	extremes := []float32{1e38, math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1))}
	for _, spec := range []string{"zfp:rate=16", "zfp:rate=8+huf"} {
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range [][]int{{1, 2, 8, 8}, {37}} {
			for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0} {
				x := tensor.Full(0.3, shape...)
				d := x.Data()
				copy(d[len(d)-len(extremes)-1:], extremes)
				d[len(d)-1] = v // in plane 1 of the planar batch
				refuse := v != 0
				_, cerr := c.Compress(x)
				sw := NewStreamWriter(io.Discard)
				werr := sw.WriteTensor(context.Background(), c, x)
				_, rerr := RoundTripInto(c, tensor.New(shape...), x)
				inPlace := x.Clone()
				_, ierr := RoundTripInto(c, inPlace, inPlace)
				_, _, terr := c.RoundTrip(x)
				for name, err := range map[string]error{"Compress": cerr, "WriteTensor": werr, "RoundTripInto": rerr, "in-place RoundTripInto": ierr, "RoundTrip": terr} {
					if refuse && !errors.Is(err, zfp.ErrNonFinite) {
						t.Errorf("%s %v holding %g: %s returned %v, want %v", spec, shape, v, name, err, zfp.ErrNonFinite)
					}
					if !refuse && err != nil {
						t.Errorf("%s %v holding the finite extremes: %s returned %v", spec, shape, name, err)
					}
				}
				if !refuse {
					continue
				}
				for i, want := range d {
					if math.Float32bits(inPlace.Data()[i]) != math.Float32bits(want) {
						t.Fatalf("%s %v position %d: a refused in-place RoundTripInto changed %g to %g", spec, shape, i, want, inPlace.Data()[i])
					}
				}
			}
		}
	}
}

// TestZfpDecodesFinite: a block whose largest value is ±MaxFloat32
// reconstructs in fixed point at up to 2¹²⁸, past float32's range, at
// some rates (8 and 16 on a 4×4 block of 0.5 with one ±MaxFloat32
// cell). The decoder saturates at ±MaxFloat32, so at every rate both
// RoundTripInto and Decompress return finite values, and the same ones.
func TestZfpDecodesFinite(t *testing.T) {
	for _, rate := range []int{1, 4, 8, 16, 32} {
		c, err := New(fmt.Sprintf("zfp:rate=%d", rate))
		if err != nil {
			t.Fatal(err)
		}
		for _, extreme := range []float32{math.MaxFloat32, -math.MaxFloat32} {
			x := tensor.Full(0.5, 1, 1, 4, 4)
			x.Data()[5] = extreme
			rt := tensor.New(x.Shape()...)
			if _, err := RoundTripInto(c, rt, x); err != nil {
				t.Fatalf("rate %d, %g: RoundTripInto: %v", rate, extreme, err)
			}
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := c.Decompress(data)
			if err != nil {
				t.Fatalf("rate %d, %g: Decompress: %v", rate, extreme, err)
			}
			for i, v := range dec.Data() {
				if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
					t.Errorf("rate %d, %g: position %d decodes to %g", rate, extreme, i, v)
				}
				if math.Float32bits(rt.Data()[i]) != math.Float32bits(v) {
					t.Errorf("rate %d, %g: position %d: RoundTripInto %g, Decompress %g", rate, extreme, i, rt.Data()[i], v)
				}
			}
		}
	}
}
