#!/usr/bin/env bash
# Builds lsiserve and the benchmark from the checkout's sources, then runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload exact --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the saved index stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/lsiserve" ./cmd/lsiserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -lsiserve "$out/lsiserve" -workdir "$out/work" "$@"
