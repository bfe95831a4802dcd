#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload star-ref --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, the go command's
# telemetry counters) stays under .bench_build/ at the root of the
# checkout. The build fails, and so does this script, when the module
# sources are missing.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$out/sudc-bench" .
exec "$out/sudc-bench" "$@"
