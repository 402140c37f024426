#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash bench/run.sh --workload fig-fast --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ and .bench_out/ in the current directory; the build uses
# no network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/wlperf" .)
exec "$build/wlperf" -root "$root" -out "$root/.bench_out" "$@"
