package zfp

import (
	"repro/internal/cpufeat"
	"repro/internal/telemetry"
)

// SIMD-dispatch counters, ticked once per plane (not per 4×4 block) so
// the block loops stay free of atomics.
var (
	simdVectorCalls   = telemetry.NewCounter("simd.zfp.vector_calls")
	simdPortableCalls = telemetry.NewCounter("simd.zfp.portable_calls")
)

// countPlaneCall records which path an Encode/DecodePlane call
// dispatches to.
func countPlaneCall() {
	if cpufeat.Have().AVX2 {
		simdVectorCalls.Inc()
	} else {
		simdPortableCalls.Inc()
	}
}
