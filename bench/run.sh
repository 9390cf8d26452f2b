#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver from source inside
# the checkout (build cache and temp files under .bench_build, nothing written
# elsewhere) and runs it with the arguments given.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bin/bench" .) >&2
exec "$build/bin/bench" -root "$root" "$@"
