package vecops

import "repro/internal/telemetry"

// SIMD-dispatch counters say which path ran: vector_calls ticks per
// vector kernel call, portable_calls per call that took the portable
// loop because the vector kernel is off. A fill below fillThreshold, or
// a lane transpose without a kernel (see laneKernel), on a vector host
// takes the short loop by design and counts as neither.
var (
	simdVectorCalls   = telemetry.NewCounter("simd.vecops.vector_calls")
	simdPortableCalls = telemetry.NewCounter("simd.vecops.portable_calls")
)
