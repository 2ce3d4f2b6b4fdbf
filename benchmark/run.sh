#!/usr/bin/env bash
# The command BENCHMARK.json names: build the harness from source and run it
# with the driver's arguments. Everything the build leaves behind, the Go
# build cache included, stays inside the checkout under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/insta-benchmark" ./benchmark
exec "$build/insta-benchmark" "$@"
