#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of a checkout:
#
#   bash benchmark/run.sh --workload optimize-cruise --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temp files, its
# config and telemetry) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
go build -C benchmark -pgo="$root/default.pgo" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
