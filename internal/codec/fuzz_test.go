package codec

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/codec/faultinject"
	"repro/internal/tensor"
)

// wideTensor builds a tensor whose little-endian float32 bytes follow
// a wide triangular distribution, the mantissa-lane shape that makes
// the entropy encoder select huf blocks — fuzz seeds built from it
// reach the huf table and stream parsers instead of the fse ones.
func wideTensor(n int) *tensor.Tensor {
	x := tensor.New(n)
	d := x.Data()
	s := uint64(0x9e3779b97f4a7c15)
	nb := func() uint32 {
		s = s*6364136223846793005 + 1442695040888963407
		return uint32((s>>16&0xFF + s>>32&0xFF + s>>48&0xFF) / 3)
	}
	for i := range d {
		d[i] = math.Float32frombits(nb() | nb()<<8 | nb()<<16 | nb()<<24)
	}
	return x
}

// reframe returns container data with its payload replaced by mut (of
// the same length) and the payload CRC recomputed, so a mutation
// reaches the payload decoder instead of the CRC check. Unlike
// WriteContainer it also frames the decode-only "+fse" specs.
func reframe(data, mut []byte) []byte {
	out := append([]byte(nil), data...)
	off := len(out) - len(mut)
	copy(out[off:], mut)
	binary.LittleEndian.PutUint32(out[off-4:], crc32.ChecksumIEEE(mut))
	return out
}

// FuzzContainerDecode hardens the self-describing decode path — header
// parsing, spec resolution, plane framing, and every family's payload
// decoder — against arbitrary byte streams: error or success, never a
// panic, runaway allocation, or a tensor inconsistent with its header.
func FuzzContainerDecode(f *testing.F) {
	// Seed with genuine containers from every family plus mutations.
	x := tensor.New(1, 1, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%31) / 31
	}
	small := tensor.New(5)
	copy(small.Data(), []float32{1, 2, 3, 4, 5})
	for _, spec := range []string{"dctc:cf=4", "dctc:cf=2,sg", "zfp:rate=8", "sz:eb=1e-2", "jpegq:q=50"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		flip := append([]byte(nil), data...)
		flip[len(flip)/3] ^= 0x20
		f.Add(flip)
		if spec != "jpegq:q=50" {
			flat, err := c.Compress(small)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(flat)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("ACCF"))
	f.Add([]byte{0x41, 0x43, 0x43, 0x46, 1, 0, 0xFF, 0xFF})

	// Staged (v3) seeds: every family through the "+huf" entropy stage,
	// and the recorded "+fse" containers (a decode-only stage, so its
	// seeds come from the golden fixture), plus variants whose entropy
	// block header and table are corrupted *below* a valid container
	// frame (CRC recomputed), so the fuzzer starts inside the entropy
	// parser instead of bouncing off the container CRC.
	containers, _ := loadGoldenFSE(f)
	for _, spec := range []string{"dctc:cf=4+huf", "zfp:rate=8+huf", "sz:eb=1e-2+huf", "jpegq:q=50+huf", "lossless:bg=4+huf", "lossless:bg=1"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		data, err := c.Compress(x)
		if err != nil {
			f.Fatal(err)
		}
		containers = append(containers, data)
	}
	for _, data := range containers {
		f.Add(data)
		f.Add(data[:len(data)-1])
		hdr, payload, err := ReadContainer(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		if !specHasStages(hdr.Spec) {
			continue
		}
		// The entropy stream leads with the block header (mode byte,
		// raw length) and the block's table: corrupt each of the first
		// bytes in turn.
		for off := 0; off < len(payload) && off < 12; off++ {
			mut := append([]byte(nil), payload...)
			mut[off] ^= 0xFF
			f.Add(reframe(data, mut))
		}
	}

	// Huf-block seeds: wide triangular bytes make every lossless lane
	// select huf blocks; one byte is corrupted inside each huf structure
	// the region scan names (code-length table, jump table, each of the
	// four bitstreams) with the container CRC recomputed, so the fuzzer
	// starts inside the huf parser rather than bouncing off the CRC.
	wide := wideTensor(2048)
	for _, spec := range []string{"lossless:bg=4+huf", "lossless:bg=2+huf"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		data, err := c.Compress(wide)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		regs, err := faultinject.V1Regions(data)
		if err != nil {
			f.Fatal(err)
		}
		_, payload, err := ReadContainer(bytes.NewReader(data))
		if err != nil {
			f.Fatal(err)
		}
		payOff := -1
		for _, r := range regs {
			if r.Name == "payload.staged" {
				payOff = r.Off
			}
		}
		if payOff < 0 {
			f.Fatal("no staged payload region in huf container")
		}
		hufSeeds := 0
		for _, r := range regs {
			if !strings.Contains(r.Name, "huf-") {
				continue
			}
			hufSeeds++
			mut := append([]byte(nil), payload...)
			mut[r.Off-payOff] ^= 0xFF
			f.Add(reframe(data, mut))
		}
		if hufSeeds == 0 {
			f.Fatalf("%s: wide tensor produced no huf blocks", spec)
		}
	}

	// Plane-framed-layer seeds: containers whose codec payload is
	// structurally damaged below the (valid) container framing, steering
	// the fuzzer at the mode bytes, plane count, and plane table.
	frame := func(spec string, shape []int, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := WriteContainer(&buf, spec, shape, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, spec := range []string{"dctc:cf=4", "sz:eb=1e-2", "zfp:rate=8"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		flat, err := c.Compress(small)
		if err != nil {
			f.Fatal(err)
		}
		hdr, payload, err := ReadContainer(bytes.NewReader(flat))
		if err != nil {
			f.Fatal(err)
		}
		// Mutated mode byte (flat <-> planar <-> garbage).
		for _, mode := range []byte{0, 1, 2, 0xFF} {
			mut := append([]byte(nil), payload...)
			mut[0] = mode
			f.Add(frame(hdr.Spec, hdr.Shape, mut))
		}
		// Truncated plane table: count intact, table cut mid-entry.
		if len(payload) > 7 {
			f.Add(frame(hdr.Spec, hdr.Shape, payload[:7]))
		}
		// Oversize plane count over an empty table.
		huge := append([]byte{payload[0]}, 0xFF, 0xFF, 0xFF, 0xFF)
		f.Add(frame(hdr.Spec, hdr.Shape, huge))
	}
	// An ACCF v2 stream fed to the v1 decoder must be rejected by the
	// version check, not misparsed — both with and without the index
	// footer.
	for _, withIndex := range []bool{false, true} {
		var sb bytes.Buffer
		sw := NewStreamWriter(&sb)
		if err := sw.SetIndex(withIndex); err != nil {
			f.Fatal(err)
		}
		if c, err := New("sz:eb=1e-2"); err != nil {
			f.Fatal(err)
		} else if err := sw.WriteTensor(context.Background(), c, small); err != nil {
			f.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(sb.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		out, c, err := DecodeBytes(data)
		if err != nil {
			return
		}
		if out == nil || c == nil {
			t.Fatal("nil result without error")
		}
		if out.Len() > maxElems {
			t.Fatalf("implausible tensor size %d accepted", out.Len())
		}
		if out.Dims() == 0 || out.Dims() > maxRank {
			t.Fatalf("implausible rank %d accepted", out.Dims())
		}
	})
}

// FuzzStreamDecode hardens the ACCF v2 streaming reader: arbitrary
// bytes must produce a clean error or a consistent decode, never a
// panic or unbounded allocation. Records whose (CRC-valid) header
// claims a large shape are skipped rather than decoded so the fuzzer
// cannot spend its budget on giant but well-formed tensors.
func FuzzStreamDecode(f *testing.F) {
	x := tensor.New(2, 1, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%29) / 29
	}
	small := tensor.New(5)
	copy(small.Data(), []float32{1, 2, 3, 4, 5})
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	for _, spec := range []string{"dctc:cf=4", "zfp:rate=8", "sz:eb=1e-2"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			f.Fatal(err)
		}
		if err := sw.WriteTensor(context.Background(), c, small); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	pristine := buf.Bytes()
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	f.Add(pristine[:8])
	flip := append([]byte(nil), pristine...)
	flip[len(flip)/3] ^= 0x10
	f.Add(flip)
	f.Add([]byte{0x41, 0x43, 0x43, 0x46, 2, 0, 0, 0, 'E'})
	f.Add([]byte{0x41, 0x43, 0x43, 0x46, 2, 0, 0, 0, 'T', 0xFF, 0xFF})

	// Pipelined-writer seeds: the same records through rounds of four
	// under a tight budget (byte-identical by contract, but seeded
	// independently so a framing regression in either path surfaces
	// here), plus a jpegq
	// record and the minimum chunk size to vary the chunk framing.
	var pbuf bytes.Buffer
	pw := NewStreamWriter(&pbuf)
	pw.SetChunkSize(1) // clamps to the 4 KiB floor
	if err := pw.SetConcurrency(4); err != nil {
		f.Fatal(err)
	}
	pw.budget = 8 << 10
	img := tensor.New(1, 1, 8, 8)
	for i := range img.Data() {
		img.Data()[i] = float32(i%17) / 17
	}
	for _, spec := range []string{"zfp:rate=8", "jpegq:q=50", "sz:eb=1e-2", "dctc:cf=4"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		in := img
		if spec != "jpegq:q=50" {
			in = x
		}
		if err := pw.WriteTensor(context.Background(), c, in); err != nil {
			f.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		f.Fatal(err)
	}
	par := pbuf.Bytes()
	f.Add(par)
	f.Add(par[:len(par)-1]) // end marker shaved off: truncation
	pflip := append([]byte(nil), par...)
	pflip[2*len(pflip)/3] ^= 0x04
	f.Add(pflip)

	// Staged ('S'-record) seeds: a stream mixing staged and plain
	// records, and the recorded stream of "+fse" records, plus variants
	// whose staged chunks have their entropy table corrupted with the
	// chunk CRC recomputed, so corruption reaches the entropy parser
	// rather than the CRC check.
	var stb bytes.Buffer
	stw := NewStreamWriter(&stb)
	stw.SetChunkSize(4 << 10)
	for _, spec := range []string{"sz:eb=1e-2+huf", "sz:eb=1e-2", "lossless:bg=2+huf", "dctc:cf=4+huf", "lossless:bg=4+huf"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		in := x
		if spec == "lossless:bg=4+huf" {
			// Wide triangular bytes: the record's chunks carry huf-mode
			// blocks, so the chunk0.data corruption below reaches the huf
			// table parser too.
			in = wideTensor(2048)
		}
		if err := stw.WriteTensor(context.Background(), c, in); err != nil {
			f.Fatal(err)
		}
	}
	if err := stw.Close(); err != nil {
		f.Fatal(err)
	}
	_, fseStream := loadGoldenFSE(f)
	for _, staged := range [][]byte{stb.Bytes(), fseStream} {
		f.Add(staged)
		f.Add(staged[:len(staged)/2])
		regs, err := faultinject.V2Regions(staged)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range regs {
			if !strings.HasSuffix(r.Name, "chunk0.data") {
				continue
			}
			// Offset 0 lands on the block header / entropy table lead
			// byte; offset 40 lands inside a huf block's code-length
			// table (and mid-table for fse blocks).
			for _, off := range []int{0, 40} {
				if off >= r.Len {
					continue
				}
				mut := append([]byte(nil), staged...)
				mut[r.Off+off] ^= 0xFF
				binary.LittleEndian.PutUint32(mut[r.Off-4:], crc32.ChecksumIEEE(mut[r.Off:r.Off+r.Len]))
				f.Add(mut)
			}
		}
	}

	// Index-footer seeds: a stream carrying the optional 'I' footer, its
	// truncations (whole trailer, mid-body), a footer-interior flip, and
	// a forged variant whose first entry offset is shifted under a
	// recomputed (valid) footer CRC, so the fuzzer reaches the entry
	// validation and the seek-time header cross-check instead of
	// bouncing off the CRC.
	indexed := buildIndexedSeed(f, x)
	f.Add(indexed)
	f.Add(indexed[:len(indexed)-1])
	f.Add(indexed[:len(indexed)-13])
	iflip := append([]byte(nil), indexed...)
	iflip[len(iflip)-20] ^= 0x01
	f.Add(iflip)
	f.Add(forgeIndexOffset(f, indexed, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			hdr, err := sr.Next()
			if err != nil {
				if err != io.EOF && sr.err == nil {
					t.Fatal("non-EOF error from Next is not sticky")
				}
				return
			}
			if hdr.Elems() > 1<<22 {
				if err := sr.Skip(); err != nil {
					return
				}
				continue
			}
			out, err := sr.Decode(context.Background())
			if err != nil {
				return
			}
			if out == nil {
				t.Fatal("nil tensor without error")
			}
			if out.Len() != hdr.Elems() {
				t.Fatalf("decoded %d elements, header claims %d", out.Len(), hdr.Elems())
			}
		}
	})
}

// buildIndexedSeed writes a two-record stream with the index footer
// enabled.
func buildIndexedSeed(f *testing.F, x *tensor.Tensor) []byte {
	f.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	sw.SetChunkSize(4 << 10)
	if err := sw.SetIndex(true); err != nil {
		f.Fatal(err)
	}
	for _, spec := range []string{"sz:eb=1e-2", "dctc:cf=4+huf"} {
		c, err := New(spec)
		if err != nil {
			f.Fatal(err)
		}
		if err := sw.WriteTensor(context.Background(), c, x); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// forgeIndexOffset shifts the first index entry's offset field by delta
// and recomputes the footer CRC, yielding a structurally valid footer
// whose entry points into the wrong bytes.
func forgeIndexOffset(f *testing.F, indexed []byte, delta uint64) []byte {
	f.Helper()
	mut := append([]byte(nil), indexed...)
	// Tail layout: … CRC(4) S(4) magic(4) 'E'(1); footer starts S bytes
	// before the 'E'.
	s := binary.LittleEndian.Uint32(mut[len(mut)-9:])
	footOff := len(mut) - 1 - int(s)
	n := int(binary.LittleEndian.Uint32(mut[footOff+1:]))
	entry0 := footOff + 5 + 4 // past marker, body length, entry count
	off0 := binary.LittleEndian.Uint64(mut[entry0:])
	binary.LittleEndian.PutUint64(mut[entry0:], off0+delta)
	binary.LittleEndian.PutUint32(mut[footOff+5+n:], crc32.ChecksumIEEE(mut[footOff:footOff+5+n]))
	return mut
}

// FuzzIndexedStream hardens the random-access path — the tail probe,
// footer parsing, the rebuild walk, and per-seek decodes — against
// arbitrary bytes: error or success, never a panic, and a tensor
// DecodeAt returns always matches the index header it was seeked by.
func FuzzIndexedStream(f *testing.F) {
	x := tensor.New(2, 1, 16, 16)
	for i := range x.Data() {
		x.Data()[i] = float32(i%29) / 29
	}
	indexed := buildIndexedSeed(f, x)
	f.Add(indexed)
	f.Add(indexed[:len(indexed)-1])
	f.Add(indexed[:len(indexed)/2])
	f.Add(forgeIndexOffset(f, indexed, 3))
	f.Add(forgeIndexOffset(f, indexed, 40))
	iflip := append([]byte(nil), indexed...)
	iflip[len(iflip)-20] ^= 0x01
	f.Add(iflip)
	// The recorded indexed stream of "+fse" records, whole and with its
	// first entry forged.
	_, fseStream := loadGoldenFSE(f)
	f.Add(fseStream)
	f.Add(forgeIndexOffset(f, fseStream, 3))
	// A footer-less stream (exercises the rebuild walk).
	var plain bytes.Buffer
	pw := NewStreamWriter(&plain)
	pw.SetChunkSize(4 << 10)
	if c, err := New("sz:eb=1e-2"); err != nil {
		f.Fatal(err)
	} else if err := pw.WriteTensor(context.Background(), c, x); err != nil {
		f.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())
	f.Add([]byte{0x41, 0x43, 0x43, 0x46, 2, 0, 0, 0, 'E'})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := OpenIndexedStream(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		n := ix.Len()
		if n > 64 {
			n = 64 // cap the per-input work; entries past this add nothing new
		}
		for i := 0; i < n; i++ {
			hdr, err := ix.Header(i)
			if err != nil {
				t.Fatalf("Header(%d) inside Len(): %v", i, err)
			}
			if hdr.Elems() > 1<<22 {
				continue
			}
			out, err := ix.DecodeAt(context.Background(), i)
			if err != nil {
				continue
			}
			if out == nil {
				t.Fatal("nil tensor without error")
			}
			if out.Len() != hdr.Elems() {
				t.Fatalf("record %d: decoded %d elements, index claims %d", i, out.Len(), hdr.Elems())
			}
		}
	})
}
