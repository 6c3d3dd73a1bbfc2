#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. It builds the benchmark from source with
# every build artefact (Go's build cache included) kept inside the checkout,
# under the git-ignored .bench_build, then runs it with the caller's flags:
#
#   bash bench/run.sh --workload churn-groomed --seed 1 --seconds 12 --trace 0
#
# `go run ./bench` from the repository root does the same with the user's own
# build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
