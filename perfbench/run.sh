#!/usr/bin/env bash
# Builds "gea" and the benchmark from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload ops-cold --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and per-run scratch all live under
# .bench_build/ at the checkout root, so a run reads and writes nothing
# outside the checkout. Build output goes to stderr; stdout carries only
# the benchmark's report, whose last line is the result object.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$root"
go build -o "$out/gea" ./cmd/gea >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -gea "$out/gea" "$@"
