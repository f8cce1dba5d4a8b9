#!/bin/sh
# Repository gate: formatting, vet, build, and the race-enabled internal
# test suite. Run from the repo root; exits nonzero on the first failure.
set -eu
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
# 32-bit smoke: the framing code validates u32 lengths (and the index
# footer's u64 offsets) before converting to int, and element products
# accumulate in uint64 — build plus vet of the codec packages catches
# any reintroduced wrap-around or truncating conversion.
GOOS=linux GOARCH=386 go build ./...
GOOS=linux GOARCH=386 go vet ./...
# ...and run the framing, entropy, vle, zfp, bitstream and vecops
# suites (with vle's sz and jpegq callers) as 32-bit binaries: the index
# footer loader converts the footer's u64 offsets and lengths, and vle
# checks a header's block count times block size against the
# destination, products that vet alone cannot check at run time; the
# bit emitter that vle, fse and zfp write through shifts a 64-bit
# accumulator by a 32-bit uint; vecops' byte-group lanes run their
# portable, endian-neutral loops there, held to the layout's definition
# by the same parity tests the AVX2 kernels pass; HufLen's stream sums
# and zfp's saturating decode run there too (TestHufLenMatchesCompressHuf,
# TestZfpDecodesFinite). sz's round runs there on math.RoundToEven's
# software fallback (TestRoundMatchesMathRound). dct and core run their
# portable transform loops there, the oracle the AVX2 kernels are held
# to, with no fused multiply-add.
GOOS=linux GOARCH=386 go test -count=1 ./internal/codec/ ./internal/entropy/ ./internal/vle/ ./internal/sz/ ./internal/jpegq/ ./internal/vecops/ ./internal/zfp/ ./internal/bitstream/ ./internal/dct/ ./internal/core/
# At GOAMD64=v3 math.RoundToEven is one ROUNDSD with no run-time SSE4.1
# check, so sz's round and its kernels run on that path too.
GOAMD64=v3 go test -count=1 ./internal/sz/ ./internal/vle/
# Cross-arch smoke builds for the dispatched kernels: on arm64
# cpufeat.Have reports no feature without reading the switch, so every
# dispatch branch folds to the portable path and the panicking kernel
# stubs are unreachable; GOAMD64=v1 checks the amd64 build makes no
# baseline-ISA assumptions outside the runtime-gated kernels.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=amd64 GOAMD64=v1 go build ./...
# Portable bytes: arm64 (like ppc64le and riscv64) may fuse x*y + z into
# one rounding, which amd64, where every golden was recorded, never
# does. Every product the codec packages add or subtract carries an
# explicit conversion that forbids the fusion, so an arm64 acc-compress
# must hold no fused multiply-add in their functions.
armbin=$(mktemp -d)
GOOS=linux GOARCH=arm64 go build -o "$armbin/acc-compress" ./cmd/acc-compress
fused=$(go tool objdump -s '^repro/internal/(dct|sz|jpegq|tensor|zfp|vle|entropy|codec|core)\.' "$armbin/acc-compress" | awk '
	/^TEXT / { fn = $2 }
	/FMADD|FMSUB|FNMADD|FNMSUB/ { print fn }' | sort | uniq -c)
rm -r "$armbin"
if [ -n "$fused" ]; then
	echo "check.sh: fused multiply-adds in an arm64 build (count, function):" >&2
	echo "$fused" >&2
	exit 1
fi
# The library serves no HTTP: net/http would double every binary and pprof's import mounts handlers on the host's DefaultServeMux.
if go list -deps ./cmd/... ./examples/... ./internal/... | grep -qx 'net/http\|net/http/pprof'; then
	echo "check.sh: net/http is linked into the library or its binaries" >&2
	exit 1
fi
go test -race ./internal/...
# Fan-out suite at one and four Ps: every indexed loop runs on tensor's
# plane pool under SetMaxWorkers' cap, so the pool, forEachPlane, the
# cap, DecodeRange, the stream writer's rounds, the stream reader's
# rounds, the matmuls and core's Into paths run once on the serial
# fallback and once on a pool wider than a small host.
go test -count=1 -cpu 1,4 -run 'Parallel|ForEachPlane|SetMaxWorkers|DecodeRange|IndexedMatchesSequential|StreamWriter|ReadAhead|AbandonedStreamReader|Into|MatMul' \
	./internal/tensor/ ./internal/codec/ ./internal/core/
# A first slice of a fuzz run over every Fuzz target in the repository
# (13 of 13, 10 s each; fuzz.sh says what each one holds).
FUZZTIME=10s sh fuzz.sh
# Kernel-dispatch suite with SIMD force-disabled: the portable
# fallbacks must pass the same equivalence/golden tests the vector
# paths do (on non-AVX2 hosts this is a harmless re-run). The entropy
# suite includes TestHufLenMatchesCompressHuf, so the size-only coder
# is held to CompressHuf on the portable histogram merge. The codec
# slice runs lossless' byte-group lanes on the portable loops end to
# end: exact round trips, every golden container and stream, and every
# family staged through "+huf"; the fused round trips — the plane
# engine's zfp and jpegq on their portable kernels, and lossless' lane
# sizing — held to the serialize path and to their alloc bounds; and
# zfp's saturating decode of a ±MaxFloat32 block on the portable scatter.
ACC_DISABLE_SIMD=1 go test -count=1 \
	./internal/cpufeat/ ./internal/dct/ ./internal/jpegq/ \
	./internal/zfp/ ./internal/vecops/ ./internal/vle/ ./internal/entropy/
ACC_DISABLE_SIMD=1 go test -count=1 ./internal/codec/ -run 'TestLosslessExact|TestGolden|TestStagedFamilies|TestRoundTripInto|TestZfpDecodesFinite'

# The allocation gates skip themselves under -race (the race runtime
# allocates), so run them again without it: the entropy backend's
# steady-state pool discipline, core's Into paths (0 allocs/op,
# RoundTripInto included) and every registry family's pooled round
# trip, bare and staged, each held to its allocs/op bound; the entropy
# decode's one output allocation (and no more than the bound on a
# stream claiming past it), staged lossless decode's bytes per output
# byte on the container, stream and indexed paths, and staged lossless
# encode's bytes per input byte through WriteTensor, Compress and
# RoundTripInto.
go test ./internal/entropy/ -run 'TestZeroAllocSteadyState|TestDecompressCapSizesOnce|TestDecompressCapClaimsPastLimit' -count=1
go test ./internal/core/ -run TestIntoPathZeroAllocs -count=1
go test ./internal/codec/ -run 'TestRoundTripIntoAllocs|TestStagedDecodeAllocBytes|TestStagedEncodeAllocBytes' -count=1
# Telemetry alloc gates: the instrumented fused round trip must stay
# 0 allocs/op with telemetry enabled, and the stream writer, at rounds
# of two, must allocate exactly as much with it on as off.
go test ./internal/codec/ -run 'TestInstrumentedRoundTripIntoAllocs|TestStreamWriterTelemetryAllocNeutral' -count=1

# Telemetry neutrality: the golden byte streams and conformance suite
# must pass identically with instrumentation on and off (the in-process
# on-vs-off byte diff is TestTelemetryByteNeutral), and the whole tree
# must build and pass with the layer compiled out entirely.
ACC_TELEMETRY=1 go test ./internal/codec/ -run 'TestGolden|TestConformanceRoundTrip|TestTelemetryByteNeutral' -count=1
ACC_TELEMETRY=0 go test ./internal/codec/ -run 'TestGolden|TestConformanceRoundTrip' -count=1
go build -tags acc_notelemetry ./...
go test -tags acc_notelemetry ./internal/telemetry/ ./internal/codec/ -count=1

# Entropy-stage conformance: every registered family must round-trip
# both bare and through the "+huf" entropy stage, with the staged
# decode bit-identical to the unstaged one (and exact for lossless);
# the recorded "+fse" payloads must decode to the same bits on every
# read path, and every write entry must refuse "+fse".
go test ./internal/codec/ -run 'TestStagedFamilies|TestLosslessExact|TestConformanceRoundTrip|TestGoldenFSEDecodes|TestFSEIsDecodeOnly' -count=1

# Index conformance: seeking through the footer (DecodeAt and parallel
# DecodeRange) must decode tensor-identically to the sequential reader,
# seeks must read O(record) not O(stream), footer-less streams must
# still open (rebuilt index) and — via the pinned golden v2 fixture —
# stay byte-identical to the pre-index format.
go test ./internal/codec/ -run 'TestIndexedMatchesSequential|TestIndexedSeekIsO1|TestIndexRebuildFallback|TestGoldenStream' -count=1

echo "check.sh: all green"
