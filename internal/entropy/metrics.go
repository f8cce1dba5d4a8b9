package entropy

import "repro/internal/telemetry"

// Backend-selection counters: one tick per emitted block, keyed by the
// representation CompressHuf actually chose.
var (
	backendRaw = telemetry.NewCounter("entropy.backend.raw")
	backendRLE = telemetry.NewCounter("entropy.backend.rle")
	backendFSE = telemetry.NewCounter("entropy.backend.fse")
	backendHuf = telemetry.NewCounter("entropy.backend.huf")
)

// Dispatch counters for the 4-stream huf decode kernel, mirroring the
// simd.vecops.* pair: one tick per decoded huf block, keyed by which
// path ran. vector_calls: the BMI2 bulk kernel ran. portable_calls: the
// kernel is off (no BMI2, a non-amd64 build, or cpufeat.SetSIMD(false)).
// kernel_skipped: the kernel is on but the block has a stream too short
// for its entry bounds, so the portable loop decoded it.
var (
	hufVectorCalls   = telemetry.NewCounter("simd.entropy.vector_calls")
	hufPortableCalls = telemetry.NewCounter("simd.entropy.portable_calls")
	hufKernelSkipped = telemetry.NewCounter("simd.entropy.kernel_skipped")
)
