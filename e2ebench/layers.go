package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/codec"
	"repro/internal/codec/tensorio"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/entropy"
	"repro/internal/sz"
	"repro/internal/tensor"
)

// A family recomposes one codec from its layers' public functions: the
// encode side must produce the codec's container byte for byte, and the
// decode side its Decompress output bit for bit. Each layer call sits in
// its own span, so the spans time the real path and nothing else.
type family struct {
	name string
	c    codec.Codec
	enc  func(tr *tracer, rec, parent int, x *tensor.Tensor) ([]byte, error)
	dec  func(tr *tracer, rec, parent int, container []byte) (*tensor.Tensor, error)
	// fwd and inv name the layer spans on the encode and decode path.
	fwd, inv []string
}

// flops accumulates core's computed operation count (Eq. 5 and 7 of the
// paper, per plane) alongside the spans.
type flops struct{ compress, decompress float64 }

// newFamilies builds the three recomposed codecs every traced run sweeps
// over its records, whatever the workload's own spec.
func newFamilies(fl *flops) ([]*family, error) {
	dc, err := codec.New("dctc:cf=4")
	if err != nil {
		return nil, err
	}
	sc, err := codec.New("sz:eb=1e-3")
	if err != nil {
		return nil, err
	}
	szc, err := sz.New(1e-3)
	if err != nil {
		return nil, err
	}
	hc, err := codec.New("lossless:bg=4+huf")
	if err != nil {
		return nil, err
	}
	bare, err := codec.New("lossless:bg=4")
	if err != nil {
		return nil, err
	}
	return []*family{
		dctcFamily(dc, fl),
		szFamily(sc, szc),
		losslessFamily(hc, bare),
	}, nil
}

// planeFrame is the codec's plane-framed payload: a mode byte (and any
// extra header), u32 plane count, u32 per-plane lengths, the planes.
func planeFrame(head []byte, parts [][]byte) []byte {
	out := append([]byte(nil), head...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(parts)))
	for _, p := range parts {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// planeSplit undoes planeFrame after head bytes.
func planeSplit(payload []byte, head int) ([][]byte, error) {
	if len(payload) < head+4 {
		return nil, fmt.Errorf("payload truncated")
	}
	body := payload[head:]
	np := int(binary.LittleEndian.Uint32(body))
	off := 4 + 4*np
	if len(body) < off {
		return nil, fmt.Errorf("plane table truncated")
	}
	parts := make([][]byte, np)
	for p := range parts {
		l := int(binary.LittleEndian.Uint32(body[4+4*p:]))
		if off+l > len(body) {
			return nil, fmt.Errorf("plane %d overruns payload", p)
		}
		parts[p] = body[off : off+l]
		off += l
	}
	return parts, nil
}

// frame wraps a payload in a container, with the payload CRC as its own
// span so framing splits into checksum and copy.
func frame(tr *tracer, rec, parent int, spec string, shape []int, payload []byte) ([]byte, error) {
	s := tr.begin("framing.crc", rec, parent, int64(len(payload)))
	tr.sinkCRC ^= crc32.ChecksumIEEE(payload)
	tr.end(s)
	var buf bytes.Buffer
	s = tr.begin("framing.container", rec, parent, int64(len(payload)))
	_, err := codec.WriteContainer(&buf, spec, shape, payload)
	tr.end(s)
	return buf.Bytes(), err
}

// unframe reads a container back, with the same two framing spans.
func unframe(tr *tracer, rec, parent int, container []byte) (codec.Header, []byte, error) {
	s := tr.begin("framing.container", rec, parent, int64(len(container)))
	hdr, payload, err := codec.ReadContainer(bytes.NewReader(container))
	tr.end(s)
	if err != nil {
		return hdr, nil, err
	}
	s = tr.begin("framing.crc", rec, parent, int64(len(payload)))
	tr.sinkCRC ^= crc32.ChecksumIEEE(payload)
	tr.end(s)
	return hdr, payload, nil
}

// dctcGeometry mirrors the dctc codec's layout choice: square [BD,C,n,n]
// batches with n a multiple of the block size are planar; anything else
// is packed row-major into the smallest planeN×planeN planes (a
// multiple of 8, at most 256) that cover it, zero-padded.
func dctcGeometry(x *tensor.Tensor) (n int, planar bool) {
	s := x.Shape()
	if len(s) == 4 && s[2] == s[3] && s[2]%dct.BlockSize == 0 {
		return s[2], true
	}
	n = dct.BlockSize
	for n*n < x.Len() && n+dct.BlockSize <= 256 {
		n += dct.BlockSize
	}
	return n, false
}

func dctcFamily(c codec.Codec, fl *flops) *family {
	const cf = 4
	f := &family{name: "dctc", c: c, fwd: []string{"core.compress"}, inv: []string{"core.decompress"}}
	f.enc = func(tr *tracer, rec, parent int, x *tensor.Tensor) ([]byte, error) {
		n, planar := dctcGeometry(x)
		comp, err := codec.Compiler(c, n)
		if err != nil {
			return nil, err
		}
		head := []byte{0}
		data := x.Data()
		if !planar {
			plane := n * n
			padded := make([]float32, (x.Len()+plane-1)/plane*plane)
			copy(padded, data)
			data = padded
			head = []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}
			binary.LittleEndian.PutUint32(head[1:], uint32(n))
			binary.LittleEndian.PutUint32(head[5:], uint32(x.Len()))
		}
		parts := make([][]byte, len(data)/(n*n))
		for p := range parts {
			plane := tensor.FromSlice(data[p*n*n:(p+1)*n*n], 1, 1, n, n)
			y := comp.AcquireCompressed()
			s := tr.begin("core.compress", rec, parent, int64(4*n*n))
			err := comp.CompressInto(y, plane)
			tr.end(s)
			if err != nil {
				comp.ReleaseCompressed(y)
				return nil, err
			}
			fl.compress += dct.CompressFLOPs(n, cf)
			for _, chunk := range y.Chunks {
				parts[p] = tensorio.Float32sToBytes(parts[p], chunk.Data())
			}
			comp.ReleaseCompressed(y)
		}
		return frame(tr, rec, parent, c.Spec(), x.Shape(), planeFrame(head, parts))
	}
	f.dec = func(tr *tracer, rec, parent int, container []byte) (*tensor.Tensor, error) {
		hdr, payload, err := unframe(tr, rec, parent, container)
		if err != nil {
			return nil, err
		}
		out := tensor.New(hdr.Shape...)
		n, planar := dctcGeometry(out)
		head, data := 1, out.Data()
		if !planar {
			plane := n * n
			head, data = 9, make([]float32, (out.Len()+plane-1)/plane*plane)
		}
		parts, err := planeSplit(payload, head)
		if err != nil {
			return nil, err
		}
		comp, err := codec.Compiler(c, n)
		if err != nil {
			return nil, err
		}
		chunkShape := append([]int{1, 1}, comp.CompressedPlaneShape()...)
		for p, part := range parts {
			vals := make([]float32, len(part)/4)
			tensorio.DecodeFloat32s(vals, part)
			y := &core.Compressed{Config: comp.Config(), BatchSize: 1, Channels: 1, N: n,
				Chunks: []*tensor.Tensor{tensor.FromSlice(vals, chunkShape...)}}
			dst := tensor.FromSlice(data[p*n*n:(p+1)*n*n], 1, 1, n, n)
			s := tr.begin("core.decompress", rec, parent, int64(4*n*n))
			err := comp.DecompressInto(dst, y)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			fl.decompress += dct.DecompressFLOPs(n, cf)
		}
		if !planar {
			copy(out.Data(), data)
		}
		return out, nil
	}
	return f
}

// szGeometry mirrors the sz codec: one plane per trailing 2-D slice, or
// a single 1×len plane for a rank-1 tensor (payload mode 1).
func szGeometry(shape []int) (h, w int, mode byte) {
	if len(shape) >= 2 {
		return shape[len(shape)-2], shape[len(shape)-1], 0
	}
	return 1, shape[0], 1
}

func szFamily(c codec.Codec, szc *sz.Codec) *family {
	f := &family{name: "sz", c: c, fwd: []string{"sz.compress"}, inv: []string{"sz.decompress"}}
	f.enc = func(tr *tracer, rec, parent int, x *tensor.Tensor) ([]byte, error) {
		h, w, mode := szGeometry(x.Shape())
		parts := make([][]byte, x.Len()/(h*w))
		for p := range parts {
			plane := tensor.FromSlice(x.Data()[p*h*w:(p+1)*h*w], h, w)
			s := tr.begin("sz.compress", rec, parent, int64(4*h*w))
			out, err := szc.Compress(plane)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			parts[p] = out
		}
		return frame(tr, rec, parent, c.Spec(), x.Shape(), planeFrame([]byte{mode}, parts))
	}
	f.dec = func(tr *tracer, rec, parent int, container []byte) (*tensor.Tensor, error) {
		hdr, payload, err := unframe(tr, rec, parent, container)
		if err != nil {
			return nil, err
		}
		parts, err := planeSplit(payload, 1)
		if err != nil {
			return nil, err
		}
		out := tensor.New(hdr.Shape...)
		h, w, _ := szGeometry(hdr.Shape)
		for p, part := range parts {
			s := tr.begin("sz.decompress", rec, parent, int64(4*h*w))
			err := szc.DecompressInto(out.Data()[p*h*w:(p+1)*h*w], part, h, w)
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return f
}

// losslessLanes is lossless:bg=4's lane count: byte k of every float32
// forms lane k, and +huf restarts its block statistics at each lane.
const losslessLanes = 4

func losslessFamily(c, bare codec.Codec) *family {
	f := &family{name: "lossless", c: c,
		fwd: []string{"lossless.group", "entropy.encode"}, inv: []string{"entropy.decode", "lossless.ungroup"}}
	f.enc = func(tr *tracer, rec, parent int, x *tensor.Tensor) ([]byte, error) {
		s := tr.begin("lossless.group", rec, parent, int64(x.SizeBytes()))
		grouped, err := bare.Compress(x)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		// Reading the bare container back is recomposition glue, not a
		// step of the real path, so it stays in the parent's self time.
		_, lanes, err := codec.ReadContainer(bytes.NewReader(grouped))
		if err != nil {
			return nil, err
		}
		var coded []byte
		for k := 0; k < losslessLanes; k++ {
			lane := lanes[k*len(lanes)/losslessLanes : (k+1)*len(lanes)/losslessLanes]
			before := entropyBlocks()
			s := tr.begin("entropy.encode", rec, parent, int64(len(lane)))
			prev := len(coded)
			coded = entropy.CompressHuf(coded, lane)
			tr.end(s)
			tr.entropyIn += int64(len(lane))
			tr.entropyOut += int64(len(coded) - prev)
			tr.addBlocks(before)
		}
		return frame(tr, rec, parent, c.Spec(), x.Shape(), coded)
	}
	f.dec = func(tr *tracer, rec, parent int, container []byte) (*tensor.Tensor, error) {
		hdr, payload, err := unframe(tr, rec, parent, container)
		if err != nil {
			return nil, err
		}
		elems := 1
		for _, d := range hdr.Shape {
			elems *= d
		}
		s := tr.begin("entropy.decode", rec, parent, int64(4*elems))
		lanes, err := entropy.DecompressCap(nil, payload, 4*elems)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		var grouped bytes.Buffer
		if _, err := codec.WriteContainer(&grouped, bare.Spec(), hdr.Shape, lanes); err != nil {
			return nil, err
		}
		s = tr.begin("lossless.ungroup", rec, parent, int64(4*elems))
		out, err := bare.Decompress(grouped.Bytes())
		tr.end(s)
		return out, err
	}
	return f
}
