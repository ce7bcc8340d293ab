#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ycsb-replay --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
