package jpegq

import (
	"repro/internal/cpufeat"
	"repro/internal/telemetry"
)

// SIMD-dispatch counters, ticked once per plane (not per 8×8 block) so
// the block loops stay free of atomics.
var (
	simdVectorCalls   = telemetry.NewCounter("simd.jpegq.vector_calls")
	simdPortableCalls = telemetry.NewCounter("simd.jpegq.portable_calls")
)

// countPlaneCall records which path a quantize/dequantize plane pass
// dispatches to.
func countPlaneCall() {
	if cpufeat.Have().AVX2 {
		simdVectorCalls.Inc()
	} else {
		simdPortableCalls.Inc()
	}
}
