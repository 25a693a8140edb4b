#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build
# aflperf from source into .bench_build/ inside the checkout, then run it
# with the driver's arguments. Go's build cache and temporary files are
# kept inside the checkout too, so the benchmark reads and writes nothing
# outside it. The first run in a checkout compiles the standard library
# into that cache (about a minute on two cores); later runs only relink.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/aflperf" ./bench/aflperf
exec "$build/aflperf" "$@"
