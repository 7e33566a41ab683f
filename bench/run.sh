#!/usr/bin/env bash
# Builds the hamsperf benchmark from this checkout's source and runs it,
# passing every argument through (see bench/README.md). Run it from the
# repository root:
#
#   bash bench/run.sh -workload colocation -seed 42 -seconds 10 -trace 0
#
# The binary, the Go build cache, temporary files, the results file and
# the CPU profiles all stay under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/pprof" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench/hamsperf && go build -o "$out/hamsperf" .) >&2
exec "$out/hamsperf" "$@"
