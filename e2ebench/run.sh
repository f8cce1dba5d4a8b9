#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload train-dctc --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, binary) and every trace file stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"

# The go command writes its build cache, temporary files and telemetry
# counters under these directories; keep them all in the checkout.
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS="-mod=readonly -buildvcs=false"
export GOWORK=off

go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$out" "$@"
