#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — the binary and the Go build cache — stays
# in .bench_build under the repo root, so a run touches nothing outside
# its checkout. The first build in a fresh checkout compiles the standard
# library too; later runs only re-check the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
