#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# The Go build cache is kept inside .bench_build too, so nothing is
# written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/mergebench" . >&2
exec "$out/mergebench" "$@"
