#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Everything it writes stays inside the checkout's build
# directory (CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off
# The engine's fault-injection, memory-pool and data-dir defaults come
# from the environment; a measured run uses none of them.
unset GMDJ_FAULTS GMDJ_MEM GMDJ_DATA_DIR
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
