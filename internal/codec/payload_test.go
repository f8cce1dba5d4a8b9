package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// encodeRaw returns spec's unframed payload for x.
func encodeRaw(t *testing.T, spec string, x *tensor.Tensor) []byte {
	t.Helper()
	c, err := New(spec)
	if err != nil {
		t.Fatalf("New(%q): %v", spec, err)
	}
	payload, err := c.(*codecImpl).encodePayload(context.Background(), x)
	if err != nil {
		t.Fatalf("encode %q: %v", spec, err)
	}
	return payload
}

// decodeEveryPath frames payload as a v1 container and as the record of
// an indexed v2 stream (CRCs computed over the bytes as given), then
// decodes it through DecodeBytes, StreamReader.Decode,
// IndexedStream.DecodeAt and the read-ahead StreamReader. It returns
// each path's tensor and error.
func decodeEveryPath(t *testing.T, spec string, shape []int, payload []byte) ([4]*tensor.Tensor, [4]error) {
	t.Helper()
	var outs [4]*tensor.Tensor
	var errs [4]error
	ctx := context.Background()

	var v1 bytes.Buffer
	if _, err := WriteContainer(&v1, spec, shape, payload); err != nil {
		t.Fatal(err)
	}
	outs[0], _, errs[0] = DecodeBytes(v1.Bytes())

	var v2 bytes.Buffer
	sw := NewStreamWriter(&v2)
	sw.SetChunkSize(4 << 10)
	if err := sw.SetIndex(true); err != nil {
		t.Fatal(err)
	}
	if err := sw.emitRecord(spec, shape, payload); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	outs[1], errs[1] = sr.Decode(ctx)

	ix, err := OpenIndexedStream(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
	if err != nil {
		t.Fatal(err)
	}
	outs[2], errs[2] = ix.DecodeAt(ctx, 0)

	ra, err := NewStreamReader(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.SetReadAhead(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, errs[3] = ra.Next(); errs[3] == nil {
		outs[3], errs[3] = ra.Decode(ctx)
	}
	return outs, errs
}

var pathNames = [4]string{"DecodeBytes", "StreamReader.Decode", "IndexedStream.DecodeAt", "read-ahead StreamReader"}

// TestPayloadPathsAgree decodes pristine payloads of every family and
// framing mode through the four entry points: a resident container
// payload and a chunked record payload take the one decoder, so the
// tensors must match bit for bit.
func TestPayloadPathsAgree(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		shape []int
	}{
		{"dctc:cf=4", []int{2, 3, 16, 16}},
		{"dctc:cf=4,s=2,sg", []int{1, 2, 32, 32}},
		{"dctc:cf=4", []int{100}},
		{"zfp:rate=8", []int{3, 8, 8}},
		{"zfp:rate=8", []int{100}},
		{"sz:eb=1e-3", []int{3, 5, 7}},
		{"sz:eb=1e-3", []int{64}},
		{"jpegq:q=50", []int{1, 2, 8, 8}},
		{"lossless:bg=4", []int{3, 5, 7}},
		// Larger than one chunk and one plane group: groups and chunk
		// boundaries fall at different offsets.
		{"zfp:rate=16", []int{4, 3, 256, 256}},
		{"dctc:cf=8", []int{1, 5, 256, 256}},
	} {
		x := tensor.NewRNG(1).Uniform(0, 1, tc.shape...)
		outs, errs := decodeEveryPath(t, tc.spec, tc.shape, encodeRaw(t, tc.spec, x))
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s %v: %s: %v", tc.spec, tc.shape, pathNames[i], err)
			}
		}
		for i := 1; i < len(outs); i++ {
			for j, v := range outs[0].Data() {
				if math.Float32bits(v) != math.Float32bits(outs[i].Data()[j]) {
					t.Fatalf("%s %v: %s differs from %s at %d", tc.spec, tc.shape, pathNames[i], pathNames[0], j)
				}
			}
		}
	}
}

// TestSZBoundHoldsOnEOBCode: sz inputs with a residual that quantizes
// to −32768, the value vle codes as its end-of-block marker — a plane
// built to hit it and the random field that found the collision — hold
// the bound on every decode path and through RoundTripInto.
func TestSZBoundHoldsOnEOBCode(t *testing.T) {
	const spec, eb = "sz:eb=1e-5", 1e-5
	planted := tensor.New(3, 4)
	planted.Data()[3] = float32(-32768 * 2 * float64(float32(eb)))
	for _, x := range []*tensor.Tensor{planted, tensor.NewRNG(0xf9a1da63ae68f55).Uniform(-3, 3, 12, 12)} {
		outs, errs := decodeEveryPath(t, spec, x.Shape(), encodeRaw(t, spec, x))
		c, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		dst := tensor.New(x.Shape()...)
		_, err = RoundTripInto(c, dst, x)
		for i, out := range append(outs[:], dst) {
			path := "RoundTripInto"
			if i < len(pathNames) {
				path, err = pathNames[i], errs[i]
			}
			if err != nil {
				t.Fatalf("%v: %s: %v", x.Shape(), path, err)
			}
			if d := out.MaxAbsDiff(x); d > eb {
				t.Errorf("%v: %s: max error %g past the %g bound", x.Shape(), path, d, eb)
			}
		}
	}
}

// setLen overwrites entry p of the length table that starts at off.
func setLen(payload []byte, off, p int, n uint32) {
	binary.LittleEndian.PutUint32(payload[off+4+4*p:], n)
}

// shiftPlane0 moves plane 0's end by n bytes into (or out of) plane 1:
// the frame's total still adds up, so only a per-plane rule can object.
func shiftPlane0(payload []byte, off int, n int32) []byte {
	p := append([]byte(nil), payload...)
	l0 := binary.LittleEndian.Uint32(p[off+4:])
	l1 := binary.LittleEndian.Uint32(p[off+8:])
	setLen(p, off, 0, uint32(int32(l0)+n))
	setLen(p, off, 1, uint32(int32(l1)-n))
	return p
}

// TestMalformedFrameRejectedOnEveryPath frames each malformed payload
// as a v1 container and as a CRC-valid v2 record: the checks live in
// the one decoder, so all four entry points must reject it.
func TestMalformedFrameRejectedOnEveryPath(t *testing.T) {
	sz := encodeRaw(t, "sz:eb=1e-3", tensor.NewRNG(1).Uniform(0, 1, 3, 5, 7))
	zfpPlanar := encodeRaw(t, "zfp:rate=8", tensor.NewRNG(2).Uniform(0, 1, 3, 8, 8))
	zfpFlat := encodeRaw(t, "zfp:rate=8,planen=8", tensor.NewRNG(3).Uniform(0, 1, 100))
	dctc := encodeRaw(t, "dctc:cf=4", tensor.NewRNG(4).Uniform(0, 1, 1, 2, 16, 16))
	cases := []struct {
		name    string
		spec    string
		shape   []int
		payload []byte
	}{
		{"plane-count mismatch", "sz:eb=1e-3", []int{3, 5, 7}, func() []byte {
			p := append([]byte(nil), sz...)
			binary.LittleEndian.PutUint32(p[1:], 4)
			return p
		}()},
		{"truncated table", "sz:eb=1e-3", []int{3, 5, 7}, sz[:1+4+8]},
		{"overrunning length", "sz:eb=1e-3", []int{3, 5, 7}, func() []byte {
			p := append([]byte(nil), sz...)
			setLen(p, 1, 2, 1<<20)
			return p
		}()},
		{"trailing bytes", "sz:eb=1e-3", []int{3, 5, 7}, append(append([]byte(nil), sz...), 0, 0)},
		// Rate 8 fills each plane's budget exactly, so one byte more is over.
		{"zfp planar plane over the rate budget", "zfp:rate=8", []int{3, 8, 8}, shiftPlane0(zfpPlanar, 1, 1)},
		{"zfp flat plane over the rate budget", "zfp:rate=8,planen=8", []int{100}, shiftPlane0(zfpFlat, 9, 1)},
		{"sz plane whose StreamDims disagree", "sz:eb=1e-3", []int{3, 5, 7},
			// Well framed, but every plane stream records 7×5.
			encodeRaw(t, "sz:eb=1e-3", tensor.NewRNG(5).Uniform(0, 1, 3, 7, 5))},
		{"jpegq payload too small to be plausible", "jpegq:q=50", []int{64, 1, 64, 64}, func() []byte {
			p := binary.LittleEndian.AppendUint32(nil, 64)
			return append(p, make([]byte, 4*64)...)
		}()},
		{"dctc plane of the wrong size", "dctc:cf=4", []int{1, 2, 16, 16}, shiftPlane0(dctc, 1, -4)},
	}
	for _, tc := range cases {
		_, errs := decodeEveryPath(t, tc.spec, tc.shape, tc.payload)
		for i, err := range errs {
			if err == nil {
				t.Errorf("%s: %s accepted the payload", tc.name, pathNames[i])
			}
		}
	}
}

// forgeRecord returns a stream holding one CRC-valid record of spec and
// shape whose header claims a claimed-byte payload, of which only
// present arrives (in one CRC-valid chunk) before the stream ends.
func forgeRecord(t *testing.T, spec string, shape []int, claimed int, present []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewStreamWriter(&buf).emitRecord(spec, shape, present); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	at := 8 + 3 + len(spec) + 1 + 4*len(shape) // the payload-length field
	binary.LittleEndian.PutUint32(data[at:], uint32(claimed))
	binary.LittleEndian.PutUint32(data[at+4:], crc32.ChecksumIEEE(data[8:at+4]))
	return data
}

// TestForgedClaimFailsBeforeAllocation decodes records whose
// CRC-valid headers claim far more payload than the stream holds: the
// decoder must run out of bytes — ErrTruncated — before it allocates
// the output tensor or a buffer sized by the claim.
func TestForgedClaimFailsBeforeAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the allocation bound only holds without -race")
	}
	const present = 1 << 10
	szHead := []byte{szModePlanar}
	szHead = binary.LittleEndian.AppendUint32(szHead, 1<<20)
	for len(szHead) < present {
		szHead = binary.LittleEndian.AppendUint32(szHead, 8)
	}
	for _, tc := range []struct {
		name    string
		spec    string
		shape   []int
		claimed int
		present []byte
	}{
		// A 64 MiB output, a 4 MiB length table cut off after 1 KiB.
		{"sz table", "sz:eb=1e-3", []int{1 << 20, 4, 4}, 1 + 4 + (1<<20)*(4+8), szHead[:present]},
		{"lossless lanes", "lossless:bg=4", []int{16 << 20}, 64 << 20, make([]byte, present)},
	} {
		for _, readAhead := range []bool{false, true} {
			name := tc.name
			sr, err := NewStreamReader(bytes.NewReader(forgeRecord(t, tc.spec, tc.shape, tc.claimed, tc.present)))
			if err != nil {
				t.Fatal(err)
			}
			// The read-ahead reader reads and decodes inside Next; the
			// synchronous one parses the header there and decodes in
			// Decode.
			decode := func() (*tensor.Tensor, error) {
				if _, err := sr.Next(); err != nil {
					return nil, err
				}
				return sr.Decode(context.Background())
			}
			if readAhead {
				name += " (read-ahead)"
				if err := sr.SetReadAhead(context.Background(), 2); err != nil {
					t.Fatal(err)
				}
			} else if _, err := sr.Next(); err != nil {
				t.Fatalf("%s: forged header rejected: %v", name, err)
			} else {
				decode = func() (*tensor.Tensor, error) { return sr.Decode(context.Background()) }
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: decoded a %v tensor from %d of %d claimed bytes", name, out.Shape(), present, tc.claimed)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Errorf("%s: error %v does not match ErrTruncated", name, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%s: decode allocated %d KB before failing, want < 1 MiB", name, alloc>>10)
			}
		}
	}
}
