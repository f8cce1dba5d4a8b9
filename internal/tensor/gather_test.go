package tensor

import (
	"testing"
	"testing/quick"
)

func TestGatherLast(t *testing.T) {
	x := Arange(0, 1, 12).Reshape(3, 4)
	g := GatherLast(x, []int{3, 0})
	if g.Dim(1) != 2 {
		t.Fatalf("GatherLast shape %v", g.Shape())
	}
	want := []float32{3, 0, 7, 4, 11, 8}
	for i, w := range want {
		if g.Data()[i] != w {
			t.Fatalf("GatherLast data %v, want %v", g.Data(), want)
		}
	}
}

func TestGatherLastRepeatedIndices(t *testing.T) {
	x := Arange(0, 1, 4).Reshape(1, 4)
	g := GatherLast(x, []int{2, 2, 2})
	for _, v := range g.Data() {
		if v != 2 {
			t.Fatalf("repeated gather = %v", g.Data())
		}
	}
}

func TestScatterLastInvertsGather(t *testing.T) {
	x := Arange(1, 1, 8).Reshape(2, 4)
	idx := []int{1, 3}
	g := GatherLast(x, idx)
	s := ScatterLast(g, idx, 4)
	// Positions 1 and 3 restored, 0 and 2 zeroed.
	want := []float32{0, 2, 0, 4, 0, 6, 0, 8}
	for i, w := range want {
		if s.Data()[i] != w {
			t.Fatalf("ScatterLast data %v, want %v", s.Data(), want)
		}
	}
}

func TestGatherOutOfRangePanics(t *testing.T) {
	defer expectPanic(t, "gather index out of range")
	GatherLast(New(2, 3), []int{3})
}

func TestScatterWidthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "scatter width mismatch")
	ScatterLast(New(2, 3), []int{0, 1}, 5)
}

// Property: for distinct indices, ScatterLast∘GatherLast restores exactly
// the gathered positions and zeroes the rest — the invariant the SG
// decompression path (torch.scatter then DCT decompress) relies on.
func TestGatherScatterProperty(t *testing.T) {
	f := func(seed uint64, rawRows, rawK uint8) bool {
		rows := int(rawRows%6) + 1
		k := int(rawK%12) + 2
		r := NewRNG(seed)
		x := r.Uniform(-4, 4, rows, k)
		// Random subset of distinct indices.
		perm := r.Perm(k)
		m := r.Intn(k) + 1
		idx := perm[:m]
		restored := ScatterLast(GatherLast(x, idx), idx, k)
		inIdx := make(map[int]bool, m)
		for _, ix := range idx {
			inIdx[ix] = true
		}
		for row := 0; row < rows; row++ {
			for j := 0; j < k; j++ {
				got := restored.At2(row, j)
				if inIdx[j] {
					if got != x.At2(row, j) {
						return false
					}
				} else if got != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
