#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash benchmark/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, temporary journals, span files) stays under
# .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry and env files
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/benchmark" build -o "$out/dup-benchmark" . >&2
exec "$out/dup-benchmark" "$@"
