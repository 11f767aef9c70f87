#!/usr/bin/env bash
# Builds perfbench and v2vserve from this checkout, then runs one benchmark
# workload; every argument passes through to perfbench (see main.go).
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload kabr-cut --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries and per-run directories live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/bin" "$build/go/cache" "$build/go/tmp" "$build/go/path" "$build/go/config"
export GOCACHE=$build/go/cache GOTMPDIR=$build/go/tmp TMPDIR=$build/go/tmp \
	GOPATH=$build/go/path GOMODCACHE=$build/go/path/pkg/mod XDG_CONFIG_HOME=$build/go/config \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go build -o "$build/bin/v2vserve" ./cmd/v2vserve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --workdir "$build/runs" --server-bin "$build/bin/v2vserve" "$@"
