package tensor

import (
	"testing"
	"testing/quick"
)

func TestReshapeSharesStorage(t *testing.T) {
	x := Arange(0, 1, 12).Reshape(3, 4)
	y := x.Reshape(4, 3)
	y.Set2(99, 0, 0)
	if x.At2(0, 0) != 99 {
		t.Fatal("Reshape must be a view")
	}
}

func TestReshapeInfer(t *testing.T) {
	x := New(2, 3, 4)
	y := x.Reshape(6, -1)
	if y.Dim(1) != 4 {
		t.Fatalf("inferred dim = %d, want 4", y.Dim(1))
	}
}

func TestReshapeBadPanics(t *testing.T) {
	defer expectPanic(t, "incompatible reshape")
	New(2, 3).Reshape(4, 2)
}

func TestTransposeRoundTrip(t *testing.T) {
	r := NewRNG(3)
	x := r.Uniform(-1, 1, 5, 9)
	y := x.Transpose().Transpose()
	if !x.Equal(y) {
		t.Fatal("double transpose must be identity")
	}
	if x.Transpose().At2(3, 2) != x.At2(2, 3) {
		t.Fatal("transpose element mapping wrong")
	}
}

func TestSliceDim0AndIndex(t *testing.T) {
	x := Arange(0, 1, 24).Reshape(4, 3, 2)
	s := x.SliceDim0(1, 3)
	if s.Dim(0) != 2 || s.At(0, 0, 0) != 6 {
		t.Fatalf("SliceDim0 wrong: shape %v first %g", s.Shape(), s.At(0, 0, 0))
	}
	ix := x.Index(2)
	if ix.Dims() != 2 || ix.At2(0, 0) != 12 {
		t.Fatalf("Index wrong: shape %v first %g", ix.Shape(), ix.At2(0, 0))
	}
}

func TestSpatialChunkRoundTrip(t *testing.T) {
	r := NewRNG(5)
	x := r.Uniform(-1, 1, 2, 3, 8, 8)
	for _, s := range []int{1, 2, 4} {
		chunks := SpatialChunk(x, s)
		if len(chunks) != s*s {
			t.Fatalf("s=%d: got %d chunks", s, len(chunks))
		}
		back := SpatialUnchunk(chunks, s)
		if !back.Equal(x) {
			t.Fatalf("s=%d: chunk/unchunk is not identity", s)
		}
	}
}

func TestSpatialChunkContent(t *testing.T) {
	// 1 sample, 1 channel, 4×4; s=2 → chunk order must be row-major:
	// top-left, top-right, bottom-left, bottom-right.
	x := Arange(0, 1, 16).Reshape(1, 1, 4, 4)
	chunks := SpatialChunk(x, 2)
	wantFirst := [][]float32{
		{0, 1, 4, 5},     // top-left
		{2, 3, 6, 7},     // top-right
		{8, 9, 12, 13},   // bottom-left
		{10, 11, 14, 15}, // bottom-right
	}
	for ci, want := range wantFirst {
		for i, w := range want {
			if chunks[ci].Data()[i] != w {
				t.Fatalf("chunk %d element %d = %g, want %g", ci, i, chunks[ci].Data()[i], w)
			}
		}
	}
}

func TestSpatialChunkBadFactorPanics(t *testing.T) {
	defer expectPanic(t, "non-dividing chunk factor")
	SpatialChunk(New(1, 1, 6, 6), 4)
}

// Property: SpatialUnchunk(SpatialChunk(x,s),s) == x for random shapes.
func TestSpatialChunkProperty(t *testing.T) {
	f := func(seed uint64, rawBD, rawC uint8, rawS uint8) bool {
		bd := int(rawBD%4) + 1
		c := int(rawC%3) + 1
		s := []int{1, 2, 4}[rawS%3]
		n := s * (int(seed%4) + 1) * 2
		r := NewRNG(seed)
		x := r.Uniform(-5, 5, bd, c, n, n)
		return SpatialUnchunk(SpatialChunk(x, s), s).Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
