#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload resp-write --seed 1 --seconds 10 --trace 0
# The build cache, the binary and the store files all stay under
# .bench_build/ at the checkout root.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
# Write the build's files back now, not during the measurement.
sync -f "$out"
exec "$out/perfbench" --data "$out/data" "$@"
