package codec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestSIMDSwitchReachesEveryKernel runs one record of each family that
// dispatches a kernel with cpufeat's switch off and then on. Off, only
// the simd.*.portable_calls counters may move, and every kernel
// package's must; on, on an AVX2+BMI2 host, every package's
// vector_calls must move. A package that kept its own copy of the
// switch would tick the wrong counter.
func TestSIMDSwitchReachesEveryKernel(t *testing.T) {
	defer cpufeat.SetSIMD(cpufeat.SetSIMD(true))
	host := cpufeat.Have()
	kernels := []string{"dct", "zfp", "jpegq", "vecops", "entropy"}
	// Values whose low byte is Zipf-distributed over 255 symbols: the
	// entropy stage codes that lane as a huf block, long enough for the
	// 4-stream kernel.
	skewed := tensor.New(16, 1024)
	zipf := rand.NewZipf(rand.New(rand.NewSource(43)), 1.2, 1, 255)
	for i := range skewed.Data() {
		skewed.Data()[i] = math.Float32frombits(0x3f800000 | uint32(zipf.Uint64()))
	}
	records := map[string]*tensor.Tensor{
		"dctc:cf=4": conformanceBatch(), "zfp:rate=8": conformanceBatch(),
		"jpegq:q=50": conformanceBatch(), "lossless:bg=4+huf": skewed,
	}
	withTelemetry(t, true, func() {
		for _, on := range []bool{false, true} {
			cpufeat.SetSIMD(on)
			before := telemetry.Default().Snapshot()
			for spec, x := range records {
				c, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				data, err := c.Compress(x)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if _, _, err := DecodeBytes(data); err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
			}
			d := telemetry.Default().Snapshot().Delta(before)
			if !on {
				for name, n := range d.Counters {
					if strings.HasPrefix(name, "simd.") && !strings.HasSuffix(name, ".portable_calls") && n != 0 {
						t.Errorf("SIMD off: %s moved by %d", name, n)
					}
				}
			}
			for _, k := range kernels {
				name := "simd." + k + ".portable_calls"
				if on {
					if !host.AVX2 || !host.BMI2 {
						t.Logf("host has %+v: the vector counters are not checked", host)
						break
					}
					name = "simd." + k + ".vector_calls"
				}
				if d.Counters[name] == 0 {
					t.Errorf("SIMD on=%v: %s did not move", on, name)
				}
			}
		}
	})
}
