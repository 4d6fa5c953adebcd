#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write stays inside the
# checkout: the Go build cache, temp files and the binary under
# .bench_build/, results and scratch data under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/sciborq-bench" .
cd "$root"
exec "$build/sciborq-bench" "$@"
