#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload connectors --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and everything else the go command
# writes (its config and telemetry directory included) stay under
# .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
