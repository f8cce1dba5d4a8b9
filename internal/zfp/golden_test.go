package zfp

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/tensor"
)

// TestGoldenStreams holds the batched word-at-a-time coder to the exact
// bytes the original bit-by-bit coder produced for fixed tensors, and
// requires those bytes to decode back identically. A multi-plane case
// codes its planes in order through one writer and decodes them through
// one reader, as the bytes were recorded.
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
			rate, err := strconv.ParseFloat(strings.TrimPrefix(tc.Name, "rate="), 64)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(rate)
			if err != nil {
				t.Fatal(err)
			}
			x := goldenTensor(tc.Shape...)
			h, w := x.Dim(-2), x.Dim(-1)
			planes := x.Len() / (h * w)
			buf := make([]byte, c.CompressedBytes(planes, h, w)+8)
			bw := bitstream.NewEmitter(buf)
			for p := 0; p < planes; p++ {
				if err := c.EncodePlane(&bw, x.Data()[p*h*w:(p+1)*h*w], h, w); err != nil {
					t.Fatal(err)
				}
			}
			want, err := hex.DecodeString(tc.Hex)
			if err != nil {
				t.Fatal(err)
			}
			if data := buf[:bw.Len()]; !bytes.Equal(data, want) {
				t.Fatalf("compressed bytes diverge from recorded stream (len %d vs %d)", len(data), len(want))
			}
			out := tensor.New(tc.Shape...)
			br := bitstream.NewReader(want)
			for p := 0; p < planes; p++ {
				if err := c.DecodePlane(br, out.Data()[p*h*w:(p+1)*h*w], h, w); err != nil {
					t.Fatal(err)
				}
			}
			// The recorded bytes decode exactly as each plane's own
			// stream does.
			for p := 0; p < planes; p++ {
				plane, _ := roundTrip(t, c, tensor.FromSlice(x.Data()[p*h*w:(p+1)*h*w], h, w))
				for i, v := range plane.Data() {
					if got := out.Data()[p*h*w+i]; math.Float32bits(got) != math.Float32bits(v) {
						t.Fatalf("plane %d value %d: %g from the recorded stream, %g from its own", p, i, got, v)
					}
				}
			}
		})
	}
}

// goldenTensor regenerates the fixed input used when the golden streams
// were recorded (same generator as the capture tool).
func goldenTensor(shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = float32((int64(i)*2654435761)%1000) / 999
	}
	for i := range d {
		if i%3 == 0 {
			d[i] = -d[i] * 1000
		}
		if i%17 == 0 {
			d[i] = 0
		}
	}
	return x
}
