#!/usr/bin/env bash
# Builds crowdbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh -seed 1
#   bash bench/run.sh --workload svc-small --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, result files and spans.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/config"

go -C bench build -o "$out/crowdbench" ./crowdbench
exec "$out/crowdbench" "$@"
