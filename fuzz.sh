#!/bin/sh
# Time-boxed fuzzing of every Fuzz target in the repository (13 of 13),
# each for $FUZZTIME (default 10s): FUZZTIME=5m sh fuzz.sh runs a longer
# campaign. Run from the repo root; exits nonzero on the first failure.
#
# Each new interesting input is minimized for at most 1s. Go's default
# is 60 s, longer than a 10 s slice: a target that finds an input early
# then spends the rest of its slice minimizing it and executes nothing
# new.
#
# vle's FuzzDecode holds the fused-table decoder to the symbol-by-symbol
# reference on every stream, values, error and error text, and sz's
# FuzzDecompress feeds arbitrary bytes to DecompressInto at the geometry
# StreamDims reads from them, which must fail or write every cell, as
# the cell-by-cell reference decoder does; FuzzContainerDecode feeds mutated
# containers to the registry decoder, which must return an error or a
# tensor consistent with the header, never panic or allocate without
# bound. On the encode side, vle's FuzzEncodeDecodeRoundTrip holds the
# branch-free tokenizer to the reference encoder and requires
# Encode∘Decode to be the identity and FlatLen to size AppendFlat's
# stream, and sz's FuzzCompress holds the four-row band quantizer to
# the cell-by-cell reference byte for byte, the band replay to the
# reference decoder bit for bit, and RoundTripPlane to the stream's
# decode and length.
# FuzzStreamDecode and FuzzIndexedStream feed mutated v2 streams to the
# sequential and the random-access reader; every family decodes records
# through the same single decoder as containers, so these reach each
# family's decode too. entropy's FuzzDecode holds the block decoder to
# the bit-serial oracle on arbitrary bytes, FuzzHufRoundTrip holds
# CompressHuf to its oracle encoder, and FuzzRoundTrip holds the fse
# block encoder CompressHuf calls to the oracle's. zfp's FuzzDecompress
# feeds arbitrary streams to DecodePlane on an 8×8 plane, which must
# return finite floats or an error, and FuzzRoundTripError holds the
# reconstruction error of any finite block within its bound. vecops'
# FuzzLanes holds the AVX2 byte-group lane kernels to the portable
# loops on arbitrary bytes and requires join∘split to keep every bit.
set -eu
cd "$(dirname "$0")"

t=${FUZZTIME:-10s}
fuzz() {
	go test -run '^$' -fuzz "^$1\$" -fuzztime "$t" -fuzzminimizetime 1s "$2"
}

fuzz FuzzDecode ./internal/vle/
fuzz FuzzEncodeDecodeRoundTrip ./internal/vle/
fuzz FuzzDecompress ./internal/sz/
fuzz FuzzCompress ./internal/sz/
fuzz FuzzContainerDecode ./internal/codec/
fuzz FuzzStreamDecode ./internal/codec/
fuzz FuzzIndexedStream ./internal/codec/
fuzz FuzzDecode ./internal/entropy/
fuzz FuzzHufRoundTrip ./internal/entropy/
fuzz FuzzRoundTrip ./internal/entropy/
fuzz FuzzDecompress ./internal/zfp/
fuzz FuzzRoundTripError ./internal/zfp/
fuzz FuzzLanes ./internal/vecops/
