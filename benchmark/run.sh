#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash benchmark/run.sh -seed 42                 # all four workloads
#   bash benchmark/run.sh --workload solve-web --seed 7 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temp files, the binary and the
# generated inputs.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CACHE_HOME="${build}/cache"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C "${root}/benchmark" build -o "${build}/thriftybench" .
exec "${build}/thriftybench" -workdir "${build}/work" "$@"
