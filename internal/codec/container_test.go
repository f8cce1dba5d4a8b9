package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, "zfp:rate=8", []int{2, 3, 16, 16}, payload); err != nil {
		t.Fatal(err)
	}
	hdr, got, err := ReadContainer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Spec != "zfp:rate=8" {
		t.Errorf("spec %q", hdr.Spec)
	}
	if len(hdr.Shape) != 4 || hdr.Elems() != 2*3*16*16 {
		t.Errorf("shape %v", hdr.Shape)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload %v", got)
	}
}

func TestContainerRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, "sz:eb=0.001", []int{8, 8}, []byte("payload-bytes")); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	if _, _, err := ReadContainer(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}

	// Payload bit flip fails the CRC.
	bad = append([]byte(nil), valid...)
	bad[len(bad)-2] ^= 0x10
	if _, _, err := ReadContainer(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("payload corruption: %v", err)
	}

	// Truncations at every prefix length fail without panicking.
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := ReadContainer(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestContainerWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, "", []int{4}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := WriteContainer(&buf, "x", nil, nil); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := WriteContainer(&buf, "x", []int{0}, nil); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := WriteContainer(&buf, "x", make([]int, 9), nil); err == nil {
		t.Error("rank 9 accepted")
	}
}

// TestReadContainerReadsOneFrame: ReadContainer consumes exactly one
// container, so containers written back to back read back one call at
// a time from the same reader.
func TestReadContainerReadsOneFrame(t *testing.T) {
	c, err := New("zfp:rate=8")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var want [][]byte
	for i := 1; i <= 2; i++ {
		data, err := c.Compress(mkStreamTensor(i, 8, 8))
		if err != nil {
			t.Fatal(err)
		}
		_, payload, err := readContainerBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
		buf.Write(data)
	}
	r := bytes.NewReader(buf.Bytes())
	for i, p := range want {
		hdr, got, err := ReadContainer(r)
		if err != nil {
			t.Fatalf("container %d: %v", i, err)
		}
		if hdr.Shape[0] != i+1 || !bytes.Equal(got, p) {
			t.Fatalf("container %d: shape %v, %d payload bytes; want leading dim %d, %d bytes", i, hdr.Shape, len(got), i+1, len(p))
		}
	}
	if _, _, err := ReadContainer(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read past the last container: err %v, want ErrTruncated", err)
	}
}

// TestReadContainerBytesInPlace: the in-memory container read slices
// the payload out of the caller's bytes, so it allocates nothing that
// grows with the payload.
func TestReadContainerBytesInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if _, err := WriteContainer(&buf, "lossless:bg=4", []int{1 << 18}, payload); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, got, err := readContainerBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &data[len(data)-len(payload)] {
		t.Error("payload is a copy, not a view of the container bytes")
	}
	// Bytes are read over plain loops, before AllocsPerRun: its
	// GOMAXPROCS(1)-and-back can make the runtime start an OS thread,
	// whose m and g structs (~5 KiB) land in the process-wide TotalAlloc.
	// A thread starts once and is then reused, so the least of three
	// windows is the function's own figure.
	const runs = 20
	perOp := uint64(math.MaxUint64)
	for w := 0; w < 3; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := readContainerBytes(data); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp = min(perOp, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if perOp > 256 {
		t.Errorf("readContainerBytes: %d B/op on a %d-byte payload, want ≤ 256", perOp, len(payload))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := readContainerBytes(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("readContainerBytes: %.0f allocs/op, want ≤ 2 (the spec string and the shape)", allocs)
	}
}

// rawFrameHead lays out a frame head field by field, without the
// writer's checks, so the limits table can forge any header.
func rawFrameHead(spec string, shape []int, payLen uint32, withLen bool) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(spec)))
	b = append(b, spec...)
	b = append(b, byte(len(shape)))
	for _, d := range shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	if withLen {
		b = binary.LittleEndian.AppendUint32(b, payLen)
	}
	return b
}

// TestFrameHeadLimits drives one table of boundary headers through
// every writer and reader of the frame head — the container writer
// and appendFrameHead, the in-memory and io.Reader container reads, a
// v2 record read by StreamReader, and an index-footer entry — and
// requires the same accept/reject answer and error kind from each. An
// indexed open given a bad entry falls back to a rebuild.
func TestFrameHeadLimits(t *testing.T) {
	const spec = "zfp:rate=8"
	long := func(n int) string { return spec + "," + strings.Repeat("x", n-len(spec)-1) }
	cases := []struct {
		name   string
		spec   string
		shape  []int
		payLen uint32
		staged bool // the frame's version or marker
		ok     bool
	}{
		{"spec length 0", "", []int{2, 3}, 4, false, false},
		{"spec length 256", long(256), []int{2, 3}, 4, false, true},
		{"spec length 257", long(257), []int{2, 3}, 4, false, false},
		{"rank 0", spec, nil, 4, false, false},
		{"rank 8", spec, []int{1, 2, 1, 2, 1, 2, 1, 2}, 4, false, true},
		{"rank 9", spec, []int{1, 2, 1, 2, 1, 2, 1, 2, 1}, 4, false, false},
		{"dim 0", spec, []int{2, 0}, 4, false, false},
		{"dim 2^24", spec, []int{1 << 24}, 4, false, true},
		{"dim 2^24+1", spec, []int{1<<24 + 1}, 4, false, false},
		{"elements 2^28", spec, []int{16, 1 << 24}, 4, false, true},
		{"elements 2^28+1", spec, []int{17, 15790321}, 4, false, false},
		{"payload 2^30+1", spec, []int{2, 3}, 1<<30 + 1, false, false},
		{"staged spec, unstaged mark", spec + "+huf", []int{2, 3}, 4, false, false},
		{"unstaged spec, staged mark", spec, []int{2, 3}, 4, true, false},
		{"staged spec, staged mark", spec + "+huf", []int{2, 3}, 4, true, true},
	}
	for _, tc := range cases {
		// Small payloads travel whole; the 2^30+1 claim travels alone.
		var payload []byte
		if tc.payLen <= 4 {
			payload = []byte{1, 2, 3, 4}[:tc.payLen]
		}
		version, marker := uint16(containerVersion), byte(recTensor)
		if tc.staged {
			version, marker = containerVersionStaged, recStaged
		}
		container := binary.LittleEndian.AppendUint32(nil, containerMagic)
		container = binary.LittleEndian.AppendUint16(container, version)
		container = append(container, rawFrameHead(tc.spec, tc.shape, tc.payLen, true)...)
		container = binary.LittleEndian.AppendUint32(container, crc32.ChecksumIEEE(payload))
		container = append(container, payload...)

		rec := append([]byte{marker}, rawFrameHead(tc.spec, tc.shape, tc.payLen, true)...)
		rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec))
		stream := append([]byte{0x41, 0x43, 0x43, 0x46, streamVersion, 0, 0, 0}, rec...)
		stream = append(stream, recEnd)

		// An index entry for a real record at offset 8, carrying the
		// case's head, in a footer with valid framing.
		var sbuf bytes.Buffer
		if err := NewStreamWriter(&sbuf).emitRecord(spec, []int{2, 8, 8}, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		indexed := sbuf.Bytes()
		footOff := int64(len(indexed))
		body := binary.LittleEndian.AppendUint32(nil, 1)
		body = binary.LittleEndian.AppendUint64(body, 8)
		body = binary.LittleEndian.AppendUint64(body, uint64(tc.payLen))
		body = append(body, marker)
		body = append(body, rawFrameHead(tc.spec, tc.shape, 0, false)...)
		foot := append([]byte{recIndex}, binary.LittleEndian.AppendUint32(nil, uint32(len(body)))...)
		foot = append(foot, body...)
		foot = binary.LittleEndian.AppendUint32(foot, crc32.ChecksumIEEE(foot))
		foot = binary.LittleEndian.AppendUint32(foot, uint32(len(body)+indexFooterOverhead))
		foot = binary.LittleEndian.AppendUint32(foot, indexMagic)
		indexed = append(append(indexed, foot...), recEnd)

		var errs []error
		var paths []string
		try := func(path string, err error) {
			paths, errs = append(paths, path), append(errs, err)
		}
		_, err := appendFrameHead(nil, frameHead{Header: Header{Spec: tc.spec, Shape: tc.shape}, payLen: uint64(tc.payLen), staged: tc.staged})
		try("appendFrameHead", err)
		if payload != nil && specHasStages(tc.spec) == tc.staged {
			_, err := WriteContainer(io.Discard, tc.spec, tc.shape, payload)
			try("WriteContainer", err)
		}
		_, _, err = readContainerBytes(container)
		try("readContainerBytes", err)
		_, _, err = ReadContainer(bytes.NewReader(container))
		try("ReadContainer", err)
		sr, err := NewStreamReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sr.Next()
		try("StreamReader.Next", err)
		_, err = parseIndexBody(body, footOff)
		try("index entry", err)

		for i, err := range errs {
			if (err == nil) != tc.ok {
				t.Errorf("%s: %s: err %v, want ok=%v", tc.name, paths[i], err, tc.ok)
			} else if ErrorKind(err) != ErrorKind(errs[0]) {
				t.Errorf("%s: %s: error kind %q (%v), %s says %q", tc.name, paths[i], ErrorKind(err), err, paths[0], ErrorKind(errs[0]))
			}
		}
		ix, err := OpenIndexedStream(bytes.NewReader(indexed), int64(len(indexed)))
		if err != nil {
			t.Fatalf("%s: OpenIndexedStream: %v", tc.name, err)
		}
		if ix.Rebuilt() == tc.ok || ix.Len() != 1 {
			t.Errorf("%s: indexed open rebuilt=%v with %d records, want rebuilt=%v with 1", tc.name, ix.Rebuilt(), ix.Len(), !tc.ok)
		}
	}
}
