#!/usr/bin/env bash
# Builds the graphjs-go benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload gt-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# the daemon's store, span dumps) goes under .bench_build/ at the
# checkout root, so the run touches nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
