#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it,
# forwarding every argument (see perfbench/README.md). Run it from the
# repository root:
#
#	bash perfbench/run.sh --workload plan-hit --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live under .bench_build, so the
# run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
