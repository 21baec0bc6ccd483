#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from this
# directory; every argument goes to the program. The binary, Go's build cache,
# temp files and the go command's own telemetry counters stay under out/build/
# beside the run output, so nothing is written outside the checkout and one
# ignore rule covers it all.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
