#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#   bash benchmark/run.sh --workload dense_exact --seed 1 --seconds 10 --trace 0
# Everything the build and the run leave behind (Go build cache, the
# binary, temporary snapshot files, trace files) stays under .bench_build/
# in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/dehealth-bench" ./benchmark
exec "$build/dehealth-bench" "$@"
