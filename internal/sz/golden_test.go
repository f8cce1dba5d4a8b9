package sz

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// goldenTensor regenerates the fixed input the golden streams were
// recorded from (same generator as the capture tool).
func goldenTensor(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = float32((int64(i)*2654435761)%1000) / 999
		if i%11 == 0 {
			d[i] = d[i] * 1e6 // unpredictable values
		}
	}
	return x
}

// TestGoldenStreams holds the flat residual coder to the exact bytes
// the row-slice implementation produced, and requires the recorded
// bytes to reconstruct within the error bound through DecompressInto.
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
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			eb, err := strconv.ParseFloat(strings.TrimPrefix(tc.Name, "eb="), 64)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(eb)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenTensor(tc.Shape...)
			data, err := c.Compress(x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("compressed bytes diverge from recorded stream (len %d vs %d)", len(data), len(want))
			}
			h, w := tc.Shape[len(tc.Shape)-2], tc.Shape[len(tc.Shape)-1]
			out := make([]float32, x.Len())
			if err := c.DecompressInto(out, want, h, w); err != nil {
				t.Fatal(err)
			}
			for i, v := range x.Data() {
				if d := math.Abs(float64(out[i]) - float64(v)); d > eb {
					t.Fatalf("position %d: |%g - %g| = %g exceeds bound %g", i, out[i], v, d, eb)
				}
			}
		})
	}
}

// TestDecompressIntoAllocs proves the decode path and the fused round
// trip are allocation-free at steady state.
func TestDecompressIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	c, err := New(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	x := goldenTensor(4, 16, 16)
	data, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, x.Len())
	if err := c.DecompressInto(dst, data, 16, 16); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.DecompressInto(dst, data, 16, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecompressInto allocates %v/op, want 0", allocs)
	}
	plane := x.Data()[:16*16]
	if _, err := c.RoundTripPlane(dst[:16*16], plane, 16, 16); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := c.RoundTripPlane(dst[:16*16], plane, 16, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RoundTripPlane allocates %v/op, want 0", allocs)
	}
}
