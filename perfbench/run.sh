#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run it from anywhere in a checkout of the repository, for example:
#
#   bash perfbench/run.sh --workload stream-1c --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files) goes under .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
