package vecops

import (
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// TestFillSIMDEquivalence checks both fills against the portable loop
// across lengths straddling every vector-width boundary.
func TestFillSIMDEquivalence(t *testing.T) {
	if !cpufeat.Have().AVX2 {
		t.Skip("no SIMD kernels on this platform")
	}
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	r := rand.New(rand.NewSource(23))
	lengths := []int{0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 2048, 2049}
	for _, n := range lengths {
		v16 := uint16(r.Uint32())
		a16 := make([]uint16, n)
		b16 := make([]uint16, n)
		cpufeat.SetSIMD(false)
		FillUint16(a16, v16)
		cpufeat.SetSIMD(true)
		FillUint16(b16, v16)
		for i := range a16 {
			if a16[i] != b16[i] {
				t.Fatalf("FillUint16 n=%d: index %d portable %04x simd %04x", n, i, a16[i], b16[i])
			}
		}

		v8 := byte(r.Uint32())
		a8 := make([]byte, n)
		b8 := make([]byte, n)
		cpufeat.SetSIMD(false)
		FillBytes(a8, v8)
		cpufeat.SetSIMD(true)
		FillBytes(b8, v8)
		for i := range a8 {
			if a8[i] != b8[i] {
				t.Fatalf("FillBytes n=%d: index %d portable %02x simd %02x", n, i, a8[i], b8[i])
			}
		}
	}
}

// TestFillBounds verifies the vector paths write exactly [0, n) — the
// guard elements on either side must survive untouched.
func TestFillBounds(t *testing.T) {
	if !cpufeat.Have().AVX2 {
		t.Skip("no SIMD kernels on this platform")
	}
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	for _, n := range []int{32, 33, 47, 64, 100} {
		buf := make([]uint16, n+2)
		buf[0], buf[n+1] = 0xDEAD, 0xBEEF
		FillUint16(buf[1:n+1], 0x7777)
		if buf[0] != 0xDEAD || buf[n+1] != 0xBEEF {
			t.Fatalf("FillUint16 n=%d overwrote guards: %04x %04x", n, buf[0], buf[n+1])
		}
		bbuf := make([]byte, n+2)
		bbuf[0], bbuf[n+1] = 0xAA, 0xBB
		FillBytes(bbuf[1:n+1], 0x55)
		if bbuf[0] != 0xAA || bbuf[n+1] != 0xBB {
			t.Fatalf("FillBytes n=%d overwrote guards: %02x %02x", n, bbuf[0], bbuf[n+1])
		}
	}
}

// TestFillAllocs verifies fills are allocation-free in both modes.
func TestFillAllocs(t *testing.T) {
	dst16 := make([]uint16, 4096)
	dst8 := make([]byte, 4096)
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	for _, mode := range []bool{false, true} {
		cpufeat.SetSIMD(mode)
		if mode && !cpufeat.Have().AVX2 {
			continue
		}
		allocs := testing.AllocsPerRun(10, func() {
			FillUint16(dst16, 7)
			FillBytes(dst8, 9)
		})
		if allocs != 0 {
			t.Fatalf("simd=%v: fills allocated %v times per run", mode, allocs)
		}
	}
}

// TestHistogramEquivalence checks Histogram256 — including the
// 4-sub-table split and the AVX2 merge — against a plain counting loop,
// across lengths straddling the threshold and the 4-byte unroll.
func TestHistogramEquivalence(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	r := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 3, 1023, 1024, 1025, 4096, 65536, 65539} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(r.Uint32() >> 4 & 0x3F * 4) // clustered alphabet
		}
		var want [256]int32
		for _, b := range src {
			want[b]++
		}
		for _, mode := range []bool{false, true} {
			cpufeat.SetSIMD(mode)
			if mode && !cpufeat.Have().AVX2 {
				continue
			}
			// Seed with a bias to confirm accumulate (not overwrite)
			// semantics.
			var got [256]int32
			got[7] = 3
			Histogram256(&got, src)
			got[7] -= 3
			if got != want {
				t.Fatalf("n=%d simd=%v: histogram mismatch", n, mode)
			}
		}
	}
}

// TestHistogramAllocs verifies the pooled sub-table scratch keeps the
// steady state allocation-free.
func TestHistogramAllocs(t *testing.T) {
	src := make([]byte, 65536)
	var h [256]int32
	Histogram256(&h, src) // warm the pool
	allocs := testing.AllocsPerRun(10, func() {
		Histogram256(&h, src)
	})
	if allocs != 0 {
		t.Fatalf("Histogram256 allocated %v times per run", allocs)
	}
}
