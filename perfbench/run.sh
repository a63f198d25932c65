#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload tcp-payments --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go cache and per-run scratch data live under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout. Without the
# repository's sources next to perfbench/ the build fails and so does
# this script.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --tmp "$out/tmp" --out "$out" "$@"
