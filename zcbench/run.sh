#!/usr/bin/env bash
# Builds zcbench from this repository's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash zcbench/run.sh --workload train --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the replicas' data directories all
# stay under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/zcbench" && go build -o "$out/zcbench" .)
exec "$out/zcbench" "$@"
