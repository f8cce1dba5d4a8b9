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
# ...and run the framing, entropy and vle suites (with vle's sz and
# jpegq callers) as 32-bit binaries: the index footer loader converts
# the footer's u64 offsets and lengths, and vle checks a header's
# block count times block size against the destination, products that
# vet alone cannot check at run time.
GOOS=linux GOARCH=386 go test -count=1 ./internal/codec/ ./internal/entropy/ ./internal/vle/ ./internal/sz/ ./internal/jpegq/
# Cross-arch smoke builds for the dispatched kernels: arm64 exercises
# the non-amd64 stubs (constant-false dispatch), and GOAMD64=v1 checks
# the amd64 build makes no baseline-ISA assumptions outside the
# runtime-gated kernels.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=amd64 GOAMD64=v1 go build ./...
# The library serves no HTTP: net/http would double every binary and pprof's import mounts handlers on the host's DefaultServeMux.
if go list -deps ./cmd/... ./examples/... ./internal/... | grep -qx 'net/http\|net/http/pprof'; then
	echo "check.sh: net/http is linked into the library or its binaries" >&2
	exit 1
fi
go test -race ./internal/...
# Fan-out suite at one and four Ps: every indexed loop runs on tensor's
# plane pool under SetMaxWorkers' cap, so the pool, forEachPlane, the
# cap, DecodeRange, the matmuls and core's Into paths run once on the
# serial fallback and once on a pool wider than a small host.
go test -count=1 -cpu 1,4 -run 'Parallel|ForEachPlane|SetMaxWorkers|DecodeRange|IndexedMatchesSequential|Into|MatMul' \
	./internal/tensor/ ./internal/codec/ ./internal/core/
# Time-boxed fuzzing of the decoders whose hot loops run on the
# bitstream fast path: vle's FuzzDecode holds the fused-table decoder to
# the symbol-by-symbol reference on every stream, and sz's
# FuzzDecompress holds Decompress and DecompressInto to the same bits;
# FuzzContainerDecode feeds mutated containers to the registry decoder,
# which must return an error or a tensor consistent with the header,
# never panic or allocate without bound. On the encode side, vle's
# FuzzEncodeDecodeRoundTrip holds the branch-free tokenizer to the
# reference encoder and requires Encode∘Decode to be the identity,
# and sz's FuzzCompress holds the two-row quantizer to the cell-by-cell
# reference byte for byte. FuzzStreamDecode and FuzzIndexedStream feed
# mutated v2 streams to the sequential and the random-access reader;
# every family decodes records through the same single decoder as
# containers, so these reach each family's decode too. entropy's
# FuzzDecode holds the block decoder to the bit-serial oracle on
# arbitrary bytes, FuzzHufRoundTrip holds CompressHuf to its oracle
# encoder, and FuzzRoundTrip holds the fse block encoder CompressHuf
# calls to the oracle's. zfp's FuzzDecompress feeds arbitrary streams
# to the bit-plane decoder, which must return finite floats or an
# error, and FuzzRoundTripError holds the reconstruction error of any
# finite block within its bound. A first slice of a fuzz run over every
# Fuzz target in the repository (12 of 12).
go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/vle/
go test -run '^$' -fuzz '^FuzzEncodeDecodeRoundTrip$' -fuzztime 10s ./internal/vle/
go test -run '^$' -fuzz FuzzDecompress -fuzztime 10s ./internal/sz/
go test -run '^$' -fuzz '^FuzzCompress$' -fuzztime 10s ./internal/sz/
go test -run '^$' -fuzz '^FuzzContainerDecode$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzStreamDecode$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzIndexedStream$' -fuzztime 10s ./internal/codec/
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/entropy/
go test -run '^$' -fuzz '^FuzzHufRoundTrip$' -fuzztime 10s ./internal/entropy/
go test -run '^$' -fuzz '^FuzzRoundTrip$' -fuzztime 10s ./internal/entropy/
go test -run '^$' -fuzz '^FuzzDecompress$' -fuzztime 10s ./internal/zfp/
go test -run '^$' -fuzz '^FuzzRoundTripError$' -fuzztime 10s ./internal/zfp/
# Kernel-dispatch suite with SIMD force-disabled: the portable
# fallbacks must pass the same equivalence/golden tests the vector
# paths do (on non-AVX2 hosts this is a harmless re-run).
ACC_DISABLE_SIMD=1 go test -count=1 \
	./internal/cpufeat/ ./internal/dct/ ./internal/jpegq/ \
	./internal/zfp/ ./internal/vecops/ ./internal/vle/ ./internal/entropy/

# The allocation gates skip themselves under -race (the race runtime
# allocates), so run them again without it: the entropy backend's
# steady-state pool discipline, core's Into paths (0 allocs/op,
# RoundTripInto included) and every registry family's pooled round
# trip, bare and staged, each held to its allocs/op bound.
go test ./internal/entropy/ -run TestZeroAllocSteadyState -count=1
go test ./internal/core/ -run TestIntoPathZeroAllocs -count=1
go test ./internal/codec/ -run TestRoundTripIntoAllocs -count=1
# Telemetry alloc gates: the instrumented fused round trip must stay
# 0 allocs/op with telemetry enabled, and the pipelined stream engine
# must allocate no more with it on than off.
go test ./internal/codec/ -run 'TestInstrumentedRoundTripIntoAllocs|TestStreamEngineTelemetryAllocNeutral' -count=1

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
