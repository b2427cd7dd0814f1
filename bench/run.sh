#!/bin/sh
# Builds the benchmark from this checkout and runs it from the checkout's
# root with the given arguments, for example
#
#   sh bench/run.sh --workload vco-air --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go's caches, the binary) and the span files of
# traced runs stay under .bench_build; nothing is downloaded.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
