#!/usr/bin/env bash
# Builds the benchmark and the simserved daemon from this checkout's
# sources, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload headline --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
go build -o "$build/bin/simserved" repro/cmd/simserved
cd "$root"
exec "$build/bin/perfbench" "$@"
