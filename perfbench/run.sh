#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload static-read --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, trace files) stays
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOENV=off
export XDG_CONFIG_HOME="$out/config"

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
