#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Everything it builds or writes
# (Go build cache, binary, store directories, span dumps) stays under
# .bench_build/perfbench in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" # keeps the toolchain's own files in the checkout
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
