#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the trace files stay in
# .bench_build/ under the working directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# Everything the go command writes (build cache, temporary files, module
# cache, telemetry under the user config dir) stays under .bench_build.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go -C "$here" build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
