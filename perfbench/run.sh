#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-memcached --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (the Go build
# cache, the binary) and every generated input lands in .bench_build/,
# so the run touches nothing outside the checkout. The build fails, and
# the script exits non-zero without printing a result, when the
# simulator's sources are not next to this directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
