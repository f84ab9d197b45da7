#!/usr/bin/env bash
# Runs the cescd end-to-end benchmark from the root of a checkout, e.g.
#
#   bash cmd/cescload/bench.sh --workload lane_stream --seed 1 --seconds 16 --trace 0
#
# It builds cescload from the checkout's source into .bench_build/ and
# runs it with the given arguments; cescload in turn builds cescd there.
# The Go build cache and every other file the toolchain writes stay under
# .bench_build/ too, so the first run in a fresh checkout compiles
# everything and later runs reuse it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/cescload build -o "$out/cescload" . >&2
exec "$out/cescload" "$@"
