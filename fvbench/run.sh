#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from the
# root of the checkout:
#
#   bash fvbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced runs' span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/fvbench" .) >&2
exec "$out/fvbench" --spans-dir "$out/spans" "$@"
