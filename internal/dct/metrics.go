package dct

import "repro/internal/telemetry"

// SIMD-dispatch counters (see the telemetry package naming scheme):
// one pair per kernel package, counted at the per-plane/per-transform
// entry points so hot block loops never touch an atomic.
var (
	simdVectorCalls   = telemetry.NewCounter("simd.dct.vector_calls")
	simdPortableCalls = telemetry.NewCounter("simd.dct.portable_calls")
)

// countKernelCall records which path a Forward/Inverse call takes:
// vector only when both of its passes dispatch. The column kernels take
// b = 4 and 8, the row kernels b = 8 alone, so a b = 4 call, whose row
// pass runs portable, counts as portable.
func countKernelCall(vector bool) {
	if vector {
		simdVectorCalls.Inc()
	} else {
		simdPortableCalls.Inc()
	}
}
