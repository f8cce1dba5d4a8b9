package dct

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/tensor"
)

// adversarialFill seeds a slice with values that stress float32 edge
// cases — ±0, ±Inf, denormals, huge magnitudes, and NaNs with distinct
// payloads (quiet and signaling, either sign, so a swapped operand order
// shows in which payload survives) — about one value in oneIn, mixed
// with ordinary noise. Sparse specials leave most outputs, each a sum of
// up to 64 inputs, free of NaN, so ±Inf, denormal and −0 arithmetic is
// compared too; dense ones make NaN meet NaN.
func adversarialFill(r *rand.Rand, s []float32, oneIn int) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30,
	}
	for i := range s {
		switch {
		case r.Intn(oneIn) != 0:
			s[i] = float32(r.NormFloat64() * 100)
		case r.Intn(5) == 0:
			s[i] = randNaN(r)
		default:
			s[i] = specials[r.Intn(len(specials))]
		}
	}
}

// randNaN returns a NaN with a random sign, quiet bit and payload.
func randNaN(r *rand.Rand) float32 {
	bits := uint32(0x7F800000) | uint32(r.Intn(1<<23-1)+1) | uint32(r.Intn(2))<<31
	return math.Float32frombits(bits)
}

// sameBits reports whether two float32 slices are bit-identical
// (NaN payloads included) and returns the first differing index.
//
// Under the race detector the instrumentation changes the portable
// path's codegen (inlining and spills), which changes which operand
// lands in src1 of the two-NaN float ops — so NaN payloads stop
// matching the assembly's. Payloads are unobservable downstream
// (float→int conversion of any NaN is the same value), so the race
// build compares NaNs as a class and stays bit-exact everywhere else.
func sameBits(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			if raceEnabled && math.IsNaN(float64(a[i])) && math.IsNaN(float64(b[i])) {
				continue
			}
			return i, false
		}
	}
	return -1, true
}

// randKernel builds a Kernel over a random b×b transform. Some entries
// are forced to +0 or −0 to exercise the column pass's zero skip, and
// with nonFinite some are NaN (random payloads) or ±Inf.
func randKernel(r *rand.Rand, b, cf int, nonFinite bool) *Kernel {
	t := tensor.New(b, b)
	it := tensor.New(b, b)
	for _, d := range [][]float32{t.Data(), it.Data()} {
		for i := range d {
			d[i] = float32(r.NormFloat64())
			switch r.Intn(10) {
			case 0, 1:
				d[i] = 0
			case 2:
				d[i] = float32(math.Copysign(0, -1))
			case 3:
				if nonFinite {
					d[i] = []float32{randNaN(r), float32(math.Inf(1)), float32(math.Inf(-1))}[r.Intn(3)]
				}
			}
		}
	}
	return NewKernel(t, it, cf)
}

// TestKernelSIMDEquivalence checks that the dispatched vector kernels
// produce bit-identical output to the portable path across block sizes,
// chop factors, strides, column tails (n or m not a multiple of 8),
// non-finite and signed-zero coefficients, and adversarial inputs.
func TestKernelSIMDEquivalence(t *testing.T) {
	if !cpufeat.Have().AVX2 {
		t.Skip("no SIMD kernels on this platform")
	}
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	r := rand.New(rand.NewSource(7))
	for _, b := range []int{4, 8} {
		for cf := 1; cf <= b; cf++ {
			for _, nblkRows := range []int{1, 2, 3, 5} {
				n := b * nblkRows
				m := cf * nblkRows
				// Trials 0-2 use a finite kernel, 3-5 a non-finite one;
				// each fills its planes with noise, sparse specials or
				// dense specials.
				for trial := 0; trial < 6; trial++ {
					name := fmt.Sprintf("b=%d/cf=%d/n=%d/trial=%d", b, cf, n, trial)
					k := randKernel(r, b, cf, trial >= 3)
					fill := func(s []float32) {
						if oneIn := []int{0, 16, 3}[trial%3]; oneIn > 0 {
							adversarialFill(r, s, oneIn)
							return
						}
						for i := range s {
							s[i] = float32(r.NormFloat64())
						}
					}
					srcStride := n + r.Intn(5)
					dstStride := m + r.Intn(5)
					invStride := n + r.Intn(5)
					src := make([]float32, n*srcStride+n)
					fill(src)
					scratchA := make([]float32, k.ScratchLen(n))
					scratchB := make([]float32, k.ScratchLen(n))
					fwdA := make([]float32, m*dstStride+m)
					fwdB := make([]float32, m*dstStride+m)

					cpufeat.SetSIMD(false)
					k.Forward(fwdA, dstStride, src, srcStride, n, scratchA)
					cpufeat.SetSIMD(true)
					k.Forward(fwdB, dstStride, src, srcStride, n, scratchB)
					if i, ok := sameBits(fwdA, fwdB); !ok {
						t.Fatalf("%s: Forward diverges at %d: portable %08x simd %08x",
							name, i, math.Float32bits(fwdA[i]), math.Float32bits(fwdB[i]))
					}

					// Inverse over an independent m×m input (reusing the
					// forward output would propagate NaNs everywhere and
					// weaken the comparison less interestingly).
					isrc := make([]float32, m*srcStride+m)
					fill(isrc)
					invA := make([]float32, n*invStride+n)
					invB := make([]float32, n*invStride+n)
					cpufeat.SetSIMD(false)
					k.Inverse(invA, invStride, isrc, srcStride, n, scratchA)
					cpufeat.SetSIMD(true)
					k.Inverse(invB, invStride, isrc, srcStride, n, scratchB)
					if i, ok := sameBits(invA, invB); !ok {
						t.Fatalf("%s: Inverse diverges at %d: portable %08x simd %08x",
							name, i, math.Float32bits(invA[i]), math.Float32bits(invB[i]))
					}
				}
			}
		}
	}
}

// TestKernelRejectsNarrowStride checks that Forward and Inverse refuse
// a row stride narrower than the rows it addresses, on either path.
func TestKernelRejectsNarrowStride(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	k := randKernel(rand.New(rand.NewSource(3)), 8, 4, false)
	const n = 16
	m := k.M(n)
	big := make([]float32, 4*n*n)
	scratch := make([]float32, k.ScratchLen(n))
	cases := []struct {
		name string
		call func()
	}{
		{"Forward src", func() { k.Forward(big, m, big, n-1, n, scratch) }},
		{"Forward dst", func() { k.Forward(big, m-1, big, n, n, scratch) }},
		{"Inverse src", func() { k.Inverse(big, n, big, m-1, n, scratch) }},
		{"Inverse dst", func() { k.Inverse(big, n-1, big, m, n, scratch) }},
	}
	for _, simd := range []bool{false, true} {
		cpufeat.SetSIMD(simd)
		for _, tc := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("simd=%v: %s: narrow stride accepted", simd, tc.name)
					}
				}()
				tc.call()
			}()
		}
	}
}

// TestKernelSIMDAllocs verifies the dispatched paths stay
// allocation-free in both modes.
func TestKernelSIMDAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	k := randKernel(r, 8, 4, false)
	n := 64
	m := k.M(n)
	src := make([]float32, n*n)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	dst := make([]float32, m*m)
	rec := make([]float32, n*n)
	scratch := make([]float32, k.ScratchLen(n))
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	for _, mode := range []bool{false, true} {
		cpufeat.SetSIMD(mode)
		if mode && !cpufeat.Have().AVX2 {
			continue
		}
		allocs := testing.AllocsPerRun(10, func() {
			k.Forward(dst, m, src, n, n, scratch)
			k.Inverse(rec, n, dst, m, n, scratch)
		})
		if allocs != 0 {
			t.Fatalf("simd=%v: Forward+Inverse allocated %v times per run", mode, allocs)
		}
	}
}
