#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Every
# argument is passed on, e.g.
#
#   bash colbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
#
# The build and Go's build cache live in .bench_build at the root of the
# checkout, so nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/colbench" build -o "$out/colbench" .
exec "$out/colbench" "$@"
