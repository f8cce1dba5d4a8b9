package jpegq

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// goldenInput regenerates the fixed tensor the golden streams were
// recorded from (same generator as the capture tool).
func goldenInput(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = float32((int64(i)*2654435761)%1000) / 999
	}
	return x
}

// TestGoldenStreams holds the cached-DCT flat-coefficient pipeline to
// the exact bytes the tensor-per-block implementation produced — the
// 8×8 kernel, rounding, zigzag and entropy stream must all be
// bit-identical — and requires the recorded bytes to reconstruct.
func TestGoldenStreams(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name  string `json:"name"`
		Shape []int  `json:"shape"`
		Hex   string `json:"hex"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden corpus")
	}
	quality := map[string]int{"q=50": 50, "q=90": 90, "q=10": 10}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			q, ok := quality[tc.Name[:4]]
			if !ok {
				t.Fatalf("no quality for golden case %q", tc.Name)
			}
			c, err := NewCodec(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			// Each case is one plane through the registry's per-plane
			// entry points, quantized with channel 1's table.
			x := goldenInput(tc.Shape...)
			h, w := x.Dim(0), x.Dim(1)
			got, err := c.EncodePlane(x.Data(), h, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.DecodePlane(want, make([]float32, h*w), h, w, 1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("compressed bytes diverge from recorded stream (len %d vs %d)", len(got), len(want))
			}
		})
	}
}

// TestRoundTripPlaneMatchesDecodePlane pins the pooled round trip, into
// a second plane and in place, to the serialize-and-decode path: same
// size, same reconstruction bits, zero steady-state allocations.
func TestRoundTripPlaneMatchesDecodePlane(t *testing.T) {
	const h, w = 16, 24
	c, err := NewCodec(65)
	if err != nil {
		t.Fatal(err)
	}
	in := goldenInput(h, w).Data()
	enc, err := c.EncodePlane(in, h, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float32, h*w)
	if err := c.DecodePlane(enc, ref, h, w, 1); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, h*w)
	inPlace := slices.Clone(in)
	for _, io := range []struct{ dst, src []float32 }{{out, in}, {inPlace, inPlace}} {
		dst := io.dst
		size, err := c.RoundTripPlane(dst, io.src, h, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if size != len(enc) {
			t.Fatalf("RoundTripPlane size %d, EncodePlane size %d", size, len(enc))
		}
		for i, v := range ref {
			if math.Float32bits(dst[i]) != math.Float32bits(v) {
				t.Fatalf("position %d: RoundTripPlane %g, DecodePlane %g", i, dst[i], v)
			}
		}
	}
	if raceEnabled {
		return // race instrumentation allocates; alloc counts only hold without -race
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.RoundTripPlane(out, in, h, w, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RoundTripPlane allocates %v/op, want 0", allocs)
	}
}
