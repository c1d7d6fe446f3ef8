#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ (everything the Go toolchain writes stays inside the checkout)
# and runs it from the checkout root with the caller's arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/msa-benchmark" . >&2
exec "$build/msa-benchmark" "$@"
