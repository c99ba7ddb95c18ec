#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Every file the build writes (binary, Go build cache, module
# cache, toolchain config) stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload campaign-decode-comp --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/home"

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomod"
export GOPATH="${build}/gopath"
export HOME="${build}/home"
export XDG_CONFIG_HOME="${build}/home/.config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOENV=off
export GOTELEMETRY=off

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
cd "${root}"
exec "${build}/perfbench" "$@"
