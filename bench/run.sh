#!/usr/bin/env bash
# Builds the benchmark and runs it: the command BENCHMARK.json registers.
#
#   bash bench/run.sh --workload node_eco_loop --seed 4 --seconds 20 --trace 0
#   bash bench/run.sh            # the whole suite
#   bash bench/run.sh -aa 2      # the suite against itself
#
# Everything the build leaves behind stays in .bench_build/ at the root of
# the checkout (the Go build cache included), and everything a run writes
# goes to bench/out/. bench/ is a module of its own (bench/go.mod), so the
# build happens there; `cd bench && go run . -out out` does the same job
# with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd bench && go build -o "$build/closurebench" .)
exec "$build/closurebench" "$@"
