package tensor

import "fmt"

// Reshape returns a tensor sharing t's storage with a new shape. One
// dimension may be -1, in which case it is inferred. Element counts must
// match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = cloneInts(shape)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic(fmt.Sprintf("tensor: Reshape with multiple -1 dims %v", shape))
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer Reshape %v from %v", shape, t.shape))
		}
		shape[infer] = len(t.data) / known
		known *= shape[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %v", shape, t.shape))
	}
	return &Tensor{shape: shape, data: t.data}
}

// Transpose returns the transpose of a 2-D tensor (materialized).
func (t *Tensor) Transpose() *Tensor {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires 2-D, got %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
	return out
}

// SliceDim0 returns the sub-tensor t[lo:hi] along dimension 0 as a view.
func (t *Tensor) SliceDim0(lo, hi int) *Tensor {
	if len(t.shape) == 0 {
		panic("tensor: SliceDim0 on 0-d tensor")
	}
	if lo < 0 || hi > t.shape[0] || lo > hi {
		panic(fmt.Sprintf("tensor: SliceDim0 [%d:%d] out of range for %v", lo, hi, t.shape))
	}
	inner := 1
	for _, d := range t.shape[1:] {
		inner *= d
	}
	shape := cloneInts(t.shape)
	shape[0] = hi - lo
	return &Tensor{shape: shape, data: t.data[lo*inner : hi*inner]}
}

// Index returns the sub-tensor t[i] along dimension 0 as a view.
func (t *Tensor) Index(i int) *Tensor {
	sub := t.SliceDim0(i, i+1)
	return sub.Reshape(sub.shape[1:]...)
}

// SpatialChunk splits a [BD, C, n, n] tensor into s×s spatial chunks of
// shape [BD, C, n/s, n/s], returned in row-major chunk order. This is the
// subdivision used by partially-serialized compression (Fig. 5): chunk
// (r,c) holds rows r*n/s..(r+1)*n/s and the matching column band of every
// sample and channel.
func SpatialChunk(t *Tensor, s int) []*Tensor {
	if len(t.shape) != 4 {
		panic(fmt.Sprintf("tensor: SpatialChunk requires 4-D [BD,C,n,n], got %v", t.shape))
	}
	bd, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	if s <= 0 || h%s != 0 || w%s != 0 {
		panic(fmt.Sprintf("tensor: SpatialChunk factor %d does not divide %dx%d", s, h, w))
	}
	ch, cw := h/s, w/s
	chunks := make([]*Tensor, 0, s*s)
	for r := 0; r < s; r++ {
		for q := 0; q < s; q++ {
			chunk := New(bd, c, ch, cw)
			for b := 0; b < bd; b++ {
				for k := 0; k < c; k++ {
					for i := 0; i < ch; i++ {
						srcOff := ((b*t.shape[1]+k)*h+(r*ch+i))*w + q*cw
						dstOff := ((b*c+k)*ch + i) * cw
						copy(chunk.data[dstOff:dstOff+cw], t.data[srcOff:srcOff+cw])
					}
				}
			}
			chunks = append(chunks, chunk)
		}
	}
	return chunks
}

// SpatialUnchunk reverses SpatialChunk: it reassembles s×s chunks of
// shape [BD, C, n/s, n/s] into one [BD, C, n, n] tensor.
func SpatialUnchunk(chunks []*Tensor, s int) *Tensor {
	if len(chunks) != s*s {
		panic(fmt.Sprintf("tensor: SpatialUnchunk expects %d chunks, got %d", s*s, len(chunks)))
	}
	first := chunks[0]
	if len(first.shape) != 4 {
		panic(fmt.Sprintf("tensor: SpatialUnchunk requires 4-D chunks, got %v", first.shape))
	}
	bd, c, ch, cw := first.shape[0], first.shape[1], first.shape[2], first.shape[3]
	out := New(bd, c, ch*s, cw*s)
	h, w := ch*s, cw*s
	for idx, chunk := range chunks {
		if !chunk.SameShape(first) {
			panic("tensor: SpatialUnchunk chunk shape mismatch")
		}
		r, q := idx/s, idx%s
		for b := 0; b < bd; b++ {
			for k := 0; k < c; k++ {
				for i := 0; i < ch; i++ {
					dstOff := ((b*c+k)*h+(r*ch+i))*w + q*cw
					srcOff := ((b*c+k)*ch + i) * cw
					copy(out.data[dstOff:dstOff+cw], chunk.data[srcOff:srcOff+cw])
				}
			}
		}
	}
	return out
}
