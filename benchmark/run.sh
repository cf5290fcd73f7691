#!/bin/sh
# Entry point named by BENCHMARK.json. It is `go run ./benchmark` with the Go
# build cache, temp files and module path kept inside the checkout, so a run
# reads and writes nothing outside it. Run from the repository root.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
exec go run ./benchmark "$@"
