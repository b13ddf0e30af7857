#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -C bench -o "$build/snlbench" .
exec "$build/snlbench" "$@"
