package vecops

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// laneModes are the dispatch states a lane test runs: the portable
// loop always, the vector kernels where this host has them.
func laneModes() []bool {
	if cpufeat.Have().AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// specialBits are float32 patterns a numeric path would not keep: NaN
// payloads (quiet and signalling, both signs), ±Inf, denormals and −0.
var specialBits = []uint32{
	0x7fc00001, 0xffc0beef, 0x7f800001, 0xffbfffff, 0x7fffffff,
	0x7f800000, 0xff800000,
	0x00000001, 0x807fffff, 0x00400000,
	0x80000000, 0x00000000,
}

// laneValues returns n values of random bits with every special
// pattern spliced in at random positions.
func laneValues(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(r.Uint32())
	}
	for _, b := range specialBits {
		if n > 0 {
			v[r.Intn(n)] = math.Float32frombits(b)
		}
	}
	return v
}

// wantLaneByte is the layout's definition: byte k of value i sits in
// lane k/w, w = 4/bg bytes per value per lane, each lane w·n bytes.
func wantLaneByte(lanes []byte, n, bg, i, k int) byte {
	w := 4 / bg
	return lanes[(k/w)*w*n+i*w+k%w]
}

// laneLengths are 0…100 and 2ᵏ−1, 2ᵏ, 2ᵏ+1 up to 2¹⁶+1: every tail
// length beside every chunk count.
func laneLengths() []int {
	var ns []int
	for n := 0; n <= 100; n++ {
		ns = append(ns, n)
	}
	for k := 7; k <= 16; k++ {
		ns = append(ns, 1<<k-1, 1<<k, 1<<k+1)
	}
	return ns
}

// TestLaneParity holds SplitLanes and JoinLanes to the layout's
// definition on both dispatch paths, with the destination at an odd
// offset between guard bytes, and requires join∘split to keep every
// bit and both paths to join arbitrary lane bytes alike.
func TestLaneParity(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	const guard = 37
	r := rand.New(rand.NewSource(31))
	for _, bg := range []int{1, 2, 4} {
		for _, n := range laneLengths() {
			src := laneValues(r, n)
			raw := make([]byte, 4*n)
			r.Read(raw)
			var joined [][]float32
			for _, simd := range laneModes() {
				cpufeat.SetSIMD(simd)
				off := 1 + 2*r.Intn(8) // odd byte offset
				buf := make([]byte, off+4*n+guard)
				r.Read(buf)
				before := append([]byte(nil), buf...)
				lanes := buf[off : off+4*n]
				SplitLanes(lanes, src, bg)
				checkGuards(t, "SplitLanes", bg, n, simd, buf, before, off, off+4*n)
				for i, v := range src {
					var le [4]byte
					binary.LittleEndian.PutUint32(le[:], math.Float32bits(v))
					for k := 0; k < 4; k++ {
						if got := wantLaneByte(lanes, n, bg, i, k); got != le[k] {
							t.Fatalf("SplitLanes bg=%d n=%d simd=%v: value %d byte %d is %#02x, want %#02x", bg, n, simd, i, k, got, le[k])
						}
					}
				}

				eoff := 1 + 2*r.Intn(8) // odd element offset
				fbuf := make([]float32, eoff+n+guard)
				for i := range fbuf {
					fbuf[i] = math.Float32frombits(r.Uint32())
				}
				fbefore := append([]float32(nil), fbuf...)
				out := fbuf[eoff : eoff+n]
				JoinLanes(out, lanes, bg)
				checkFloatGuards(t, "JoinLanes", bg, n, simd, fbuf, fbefore, eoff, eoff+n)
				for i := range src {
					if math.Float32bits(out[i]) != math.Float32bits(src[i]) {
						t.Fatalf("join∘split bg=%d n=%d simd=%v: value %d is %#08x, want %#08x", bg, n, simd, i, math.Float32bits(out[i]), math.Float32bits(src[i]))
					}
				}

				dst := make([]float32, n)
				JoinLanes(dst, raw, bg)
				joined = append(joined, dst)
			}
			if len(joined) == 2 {
				for i := range joined[0] {
					if math.Float32bits(joined[0][i]) != math.Float32bits(joined[1][i]) {
						t.Fatalf("JoinLanes bg=%d n=%d: value %d portable %#08x simd %#08x", bg, n, i, math.Float32bits(joined[0][i]), math.Float32bits(joined[1][i]))
					}
				}
			}
		}
	}
}

func checkGuards(t *testing.T, op string, bg, n int, simd bool, buf, before []byte, lo, hi int) {
	t.Helper()
	for i := range buf {
		if (i < lo || i >= hi) && buf[i] != before[i] {
			t.Fatalf("%s bg=%d n=%d simd=%v: wrote guard byte %d of [%d,%d)", op, bg, n, simd, i, lo, hi)
		}
	}
}

func checkFloatGuards(t *testing.T, op string, bg, n int, simd bool, buf, before []float32, lo, hi int) {
	t.Helper()
	for i := range buf {
		if (i < lo || i >= hi) && math.Float32bits(buf[i]) != math.Float32bits(before[i]) {
			t.Fatalf("%s bg=%d n=%d simd=%v: wrote guard value %d of [%d,%d)", op, bg, n, simd, i, lo, hi)
		}
	}
}

// TestLanesRejectMisuse: a length mismatch or an unknown bg is a bug
// in the caller and panics instead of writing a partial layout.
func TestLanesRejectMisuse(t *testing.T) {
	for _, c := range []struct {
		name string
		call func()
	}{
		{"split short dst", func() { SplitLanes(make([]byte, 7), make([]float32, 2), 4) }},
		{"split bg=3", func() { SplitLanes(make([]byte, 8), make([]float32, 2), 3) }},
		{"join long src", func() { JoinLanes(make([]float32, 2), make([]byte, 9), 2) }},
		{"join bg=0", func() { JoinLanes(make([]float32, 2), make([]byte, 8), 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.call()
		}()
	}
}

// TestLanesAllocs: both directions are allocation-free on both paths.
func TestLanesAllocs(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	src := make([]float32, 4099)
	lanes := make([]byte, 4*len(src))
	for _, simd := range laneModes() {
		cpufeat.SetSIMD(simd)
		for _, bg := range []int{1, 2, 4} {
			allocs := testing.AllocsPerRun(10, func() {
				SplitLanes(lanes, src, bg)
				JoinLanes(src, lanes, bg)
			})
			if allocs != 0 {
				t.Fatalf("simd=%v bg=%d: lanes allocated %v times per run", simd, bg, allocs)
			}
		}
	}
}

// FuzzLanes holds the vector lanes to the portable ones on arbitrary
// bytes, read both as float32 values to split and as lanes to join,
// and requires join∘split to be the identity on every bit.
func FuzzLanes(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{0x01, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x00, 0x80}, uint8(2))
	seed := make([]byte, 4*67)
	rand.New(rand.NewSource(37)).Read(seed)
	f.Add(seed, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
		bg := [3]int{1, 2, 4}[sel%3]
		n := len(data) / 4
		data = data[:4*n]
		src := make([]float32, n)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		var split [][]byte
		var joined [][]float32
		for _, simd := range laneModes() {
			cpufeat.SetSIMD(simd)
			lanes := make([]byte, 4*n)
			SplitLanes(lanes, src, bg)
			back := make([]float32, n)
			JoinLanes(back, lanes, bg)
			for i := range src {
				if math.Float32bits(back[i]) != math.Float32bits(src[i]) {
					t.Fatalf("join∘split bg=%d n=%d simd=%v: value %d is %#08x, want %#08x", bg, n, simd, i, math.Float32bits(back[i]), math.Float32bits(src[i]))
				}
			}
			out := make([]float32, n)
			JoinLanes(out, data, bg)
			split = append(split, lanes)
			joined = append(joined, out)
		}
		if len(split) < 2 {
			return
		}
		for i := range split[0] {
			if split[0][i] != split[1][i] {
				t.Fatalf("SplitLanes bg=%d n=%d: byte %d portable %#02x simd %#02x", bg, n, i, split[0][i], split[1][i])
			}
		}
		for i := range joined[0] {
			if math.Float32bits(joined[0][i]) != math.Float32bits(joined[1][i]) {
				t.Fatalf("JoinLanes bg=%d n=%d: value %d portable %#08x simd %#08x", bg, n, i, math.Float32bits(joined[0][i]), math.Float32bits(joined[1][i]))
			}
		}
	})
}

// BenchmarkLanes moves a [512,1024] float32 matrix, checkpoint's
// largest record, through each direction at bg=4 on each path.
func BenchmarkLanes(b *testing.B) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	src := laneValues(rand.New(rand.NewSource(41)), 512*1024)
	lanes := make([]byte, 4*len(src))
	for _, simd := range laneModes() {
		name := "portable"
		if simd {
			name = "avx2"
		}
		b.Run("split/"+name, func(b *testing.B) {
			cpufeat.SetSIMD(simd)
			b.SetBytes(int64(len(lanes)))
			for i := 0; i < b.N; i++ {
				SplitLanes(lanes, src, 4)
			}
		})
		b.Run("join/"+name, func(b *testing.B) {
			cpufeat.SetSIMD(simd)
			b.SetBytes(int64(len(lanes)))
			for i := 0; i < b.N; i++ {
				JoinLanes(src, lanes, 4)
			}
		})
	}
}
