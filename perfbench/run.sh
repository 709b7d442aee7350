#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload exchange-sweep --seed 1 --seconds 8 --trace 0
#   bash perfbench/run.sh report RUN-OUTPUT...
# Run from the root of a checkout. Build output, the Go build cache and the
# benchmark's scratch state stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME=$out/config GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
