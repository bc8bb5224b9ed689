#!/usr/bin/env bash
# Builds relacc, relaccd and the perfbench binary from the source tree this
# script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --ladder
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no go.mod at $root; the benchmark builds the programs from source" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
# Keep the toolchain's caches, temp files and config (telemetry) in the tree.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/bin/relacc" ./cmd/relacc >&2
go build -o "$build/bin/relaccd" ./cmd/relaccd >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
