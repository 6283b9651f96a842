#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload fw-hot --seed 1 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, Chrome traces) lands in .bench_build/ under the
# current directory.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
