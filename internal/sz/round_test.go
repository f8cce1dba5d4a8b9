package sz

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestRoundMatchesMathRound holds round to math.Round bit for bit (a
// NaN to a NaN): on the signed zeros, the infinities and NaNs; on every
// tie k+½ for |k| ≤ 2²¹ and its neighbours one and two ulps away; on
// the first and last float64 of every binade from 2⁻¹⁰⁷⁴ to 2⁵³, both
// signs; and on 10⁷ random bit patterns.
func TestRoundMatchesMathRound(t *testing.T) {
	check := func(r float64) {
		got, want := round(r), math.Round(r)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("round(%v) = %v, want NaN", r, got)
			}
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round(%v [%#016x]) = %v [%#016x], math.Round %v [%#016x]",
				r, math.Float64bits(r), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, r := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF)} {
		check(r)
	}
	for k := -1 << 21; k <= 1<<21; k++ {
		tie := float64(k) + 0.5
		check(tie)
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			r := tie
			for range 2 {
				r = math.Nextafter(r, dir)
				check(r)
			}
		}
	}
	for e := -1074; e <= 53; e++ {
		first := math.Ldexp(1, e)
		last := math.Nextafter(math.Ldexp(1, e+1), 0)
		for _, r := range []float64{first, last, -first, -last} {
			check(r)
		}
	}
	rng := tensor.NewRNG(34)
	for range 10_000_000 {
		check(math.Float64frombits(rng.Uint64()))
	}
}
