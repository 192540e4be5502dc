#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run from the
# repository root; every argument goes to the benchmark:
#
#   bash benchmark/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

rev=unknown
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

# The toolchain keeps caches and settings under HOME; point it, and every
# other place the go command writes, into the checkout.
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go -C "$root/benchmark" build -trimpath -ldflags "-X main.commit=$rev" -o "$out/benchmark" .

exec "$out/benchmark" "$@"
