#!/usr/bin/env bash
# Builds the benchmark and the worker binary the served workload's
# coordinator execs, then runs the benchmark. Everything it writes —
# the Go build cache included — stays under .bench_build in the
# checkout. Run from the repository root:
#
#   bash dsmbench/run.sh --workload paper-small --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$root/dsmbench" build -o "$build/dsmbench" .
go -C "$root" build -o "$build/experiments" ./cmd/experiments
exec "$build/dsmbench" -build-dir "$build" -experiments "$build/experiments" "$@"
