#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Every build artefact and cache lives under .bench_build/ in the checkout;
# HOME and the XDG directories point there too, so the go command keeps its
# own configuration and telemetry files inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/tmp" "$@"
