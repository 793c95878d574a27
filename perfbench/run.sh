#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload svc-http --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --build-dir "$out" "$@"
