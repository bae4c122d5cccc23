#!/usr/bin/env bash
# Builds the load benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload quantity-churn --seed 1 --seconds 25 --trace 0
#
# Every build artefact, cache and temporary file stays under .bench_build/
# in the current directory; the Go toolchain is never allowed to fetch.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
