#!/usr/bin/env bash
# Builds hrmbench from the sources of the checkout it sits in and runs it
# with the given arguments, from the checkout's root:
#
#   bash hrmbench/run.sh --workload serve-kv --seed 3 --seconds 20 --trace 0
#
# The binary, the Go build cache, and the run's scratch files (journals,
# span dumps) all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain's caches, temporary files and config reads inside
# the checkout, and never reach for another toolchain or module.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

(cd "$root/hrmbench" && go build -o "$out/hrmbench" .)
cd "$root"
exec "$out/hrmbench" --out "$out/hrmbench-out" "$@"
