#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash refbench/run.sh --workload ua741_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache and temp files included). The first
# run compiles the standard library into that cache; later runs reuse it.
set -euo pipefail

out="$(pwd)/.bench_build/refbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd refbench && go build -o "$out/refbench" .)

exec "$out/refbench" "$@"
