#!/usr/bin/env bash
# Builds prefetchd and the benchmark from this checkout's sources, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-fast --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/prefetchd" ./cmd/prefetchd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -prefetchd "$out/prefetchd" -work "$out/work" "$@"
