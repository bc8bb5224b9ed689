#!/usr/bin/env bash
# bench.sh — run the key micro-benchmarks and record them as JSON,
# starting the perf-trajectory record (one BENCH_<tag>.json per PR).
#
# Usage:
#   ./scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1s; CI smoke uses 1x)
#   COUNT      go test -count value      (default 1)
#
# The tracked benchmarks are the hot paths the performance PRs moved:
#   BenchmarkCheckPooled     allocation-free candidate check, verdict
#                            cache disabled — the raw chase   (PR 1/4)
#   BenchmarkCheckCached     the same repeated check with the verdict
#                            cache on (the default): a hit    (PR 7)
#   BenchmarkTopKCTParallel  speculative parallel top-k       (PR 1)
#   BenchmarkIncrementalAdd  delta instantiation vs rebuild   (PR 3/4)
#   BenchmarkUpdaterApply    disjoint-key batch on the sharded
#                            live-entity store, 1 vs N workers (PR 5)
#   BenchmarkWALAppend       per-batch durable-log cost, with and
#                            without fsync                     (PR 6)
#   BenchmarkRecoveryReplay  cold boot: log scan + full replay (PR 6)
#   BenchmarkTopKWarmQuery   repeated Updater.Query, cold (both caches
#                            off) vs warm (settled memo hit)   (PR 7)
#   BenchmarkColdCheck       checker construction + first chase on a
#                            fresh grounding version            (PR 8)
#   BenchmarkOrderAdd        closure-restoring chain insertion on one
#                            order matrix                       (PR 8)
#   BenchmarkOrderMax        word-parallel λ scan on a full clique (PR 8)
#   BenchmarkStreamIngest    end-to-end CSV ingest, materialized vs
#                            streaming: rows/s and peak sampled heap
#                            (peak-bytes — the constant-memory claim) (PR 9)
#   BenchmarkInstantiation   per-entity grounding on a prebuilt Shared:
#                            the paper example, and Med entities with
#                            csvio-interned rows (the ingest shape) (PR 15)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr9.json}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkCheckPooled$|BenchmarkCheckCached$|BenchmarkColdCheck$|BenchmarkOrderAdd|BenchmarkOrderMax|BenchmarkTopKCTParallel|BenchmarkIncrementalAdd|BenchmarkUpdaterApply|BenchmarkWALAppend|BenchmarkRecoveryReplay|BenchmarkTopKWarmQuery|BenchmarkStreamIngest|BenchmarkInstantiation' \
  -benchmem -benchtime "$benchtime" -count "$count" . | tee "$raw"

# Parse `go test -bench` lines into JSON records. A -benchmem line looks
# like:  BenchmarkName-8  123  456 ns/op  789 B/op  12 allocs/op
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" '
BEGIN { print "{"; printf "  \"generated\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"results\": [", date, benchtime; n = 0 }
/^Benchmark/ && / ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    iters = $2; ns = $3
    bytes = "null"; allocs = "null"; rows = "null"; peak = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "rows/s") rows = $(i-1)
        if ($i == "peak-bytes") peak = $(i-1)
    }
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, iters, ns, bytes, allocs
    # Custom metrics (only BenchmarkStreamIngest emits them today):
    # ingest throughput and the peak sampled heap during one ingest.
    if (rows != "null") printf ", \"rows_per_s\": %s", rows
    if (peak != "null") printf ", \"peak_bytes\": %s", peak
    printf "}"
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "wrote $out"
