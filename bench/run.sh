#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache and scratch
# space, binary, traces, suite results) stays under the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

go -C bench build -o "$build/strandbench" . >&2
exec "$build/strandbench" -build-dir "$build" "$@"
