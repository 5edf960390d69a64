#!/usr/bin/env bash
# Builds the benchmark against the repository it sits in, then runs it
# from the repository root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-verify --seed 7 --seconds 20 --trace 0
#
# Build outputs (binary and Go build cache) stay in .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C perfbench -o "../$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
