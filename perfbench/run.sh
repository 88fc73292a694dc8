#!/usr/bin/env bash
# Builds the serving benchmark from the sources of this checkout and runs it
# with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload point-lookup --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (the binary, its build cache, its
# config and telemetry directory) stays under .bench_build/ in the checkout;
# nothing is fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
