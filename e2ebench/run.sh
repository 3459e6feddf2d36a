#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash e2ebench/run.sh --workload all
#   bash e2ebench/run.sh --workload wq-remote --seed 7 --seconds 10 --trace 1
#
# Every build product and cache stays under .bench_build/ in the current
# directory; the toolchain runs offline.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
