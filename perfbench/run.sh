#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload partition --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, temp files, the binary and
# the workloads' scratch data) stays under .bench_build in the repository
# root, and the Go toolchain is kept off the network.
set -eu

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/work" "$@"
