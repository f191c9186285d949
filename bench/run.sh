#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"). Builds the harness and
# runs it with every cache and temp file of the Go toolchain kept inside the
# checkout's git-ignored .bench_build, so a run reads and writes nothing
# outside the checkout. Arguments are passed through:
#
#   bash bench/run.sh --workload svm-wire --seed 1 --seconds 24 --trace 0
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
