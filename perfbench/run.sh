#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload most-hybrid-lan --seed 1940 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all
#
# Run it from the repository root. Build outputs, the Go build cache and
# the per-run scratch files all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

if ! go build -C "$root/perfbench" -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
