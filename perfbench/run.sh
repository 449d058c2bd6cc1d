#!/usr/bin/env bash
# Builds the benchmark and cmd/atsimd from source, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig9-grid --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory (the Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/atsimd" ./cmd/atsimd
exec "$out/perfbench" "$@"
