#!/usr/bin/env bash
# Builds sigbench from the sources of the checkout it is run from, then runs
# it with the given flags. Run it from the root of a checkout, e.g.
#
#   bash cmd/sigbench/run.sh --workload simulate-resident --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C cmd/sigbench build -o "$out/bin/sigbench" .
exec "$out/bin/sigbench" "$@"
