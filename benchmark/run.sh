#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it. Every
# byte the build and the run write (Go build cache, temp files, store
# directories) stays under .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its env file and telemetry counters there
export GOPROXY=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off

bin="$build/chimera-benchmark"
(cd "$here" && go build -o "$bin" .)
exec "$bin" "$@"
