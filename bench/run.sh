#!/bin/sh
# Entry point of BENCHMARK.json's command: build the benchmark and run it
# with the given flags, from the repository root. Everything the go tool
# writes (build cache, temporary files, the binary) stays under
# .bench_build/ in the checkout, so a run leaves nothing behind elsewhere.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -C bench -o "$build/bench" .
cd bench
exec "$build/bench" "$@"
