#!/usr/bin/env bash
# bench.sh — run the key micro-benchmarks and record them as JSON,
# starting the perf-trajectory record (one BENCH_<tag>.json per PR).
#
# Usage:
#   ./scripts/bench.sh OUTPUT.json
#
# The snapshot opens with a header naming what produced it: the Go
# version, nproc, GOMAXPROCS (the -N suffix go test prints; none
# means 1), the cpu: line go test prints and the commit (with -dirty
# for uncommitted changes). scripts/benchdiff.sh warns when two
# snapshots' machines differ.
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
#   BenchmarkTopKCT900       one TopKCT search, k=15, on the Fig 6(i)
#                            workload (‖Ie‖ = 900), verdict cache off
#   BenchmarkIncrementalAdd  delta instantiation vs rebuild; the
#                            rebuild's B/op is what one grounding
#                            allocates, which the bounded chase
#                            worklist keeps near its order matrices.
#                            Ie=300/extend64 absorbs 64 tuples in one
#                            Extend (a bulk-seeded block), Med/extend
#                            one tuple per gen.Med entity — the
#                            relaccd append shape
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
#   BenchmarkTopKCold        one cold TopKCT search on full Med with its
#                            1,800-row master, verdict cache off, k=3
#                            and k=5: the serve-query search (PR 16)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 OUTPUT.json" >&2
    exit 2
fi
out="$1"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkCheckPooled$|BenchmarkCheckCached$|BenchmarkColdCheck$|BenchmarkOrderAdd|BenchmarkOrderMax|BenchmarkTopKCT900|BenchmarkIncrementalAdd|BenchmarkUpdaterApply|BenchmarkWALAppend|BenchmarkRecoveryReplay|BenchmarkTopKWarmQuery|BenchmarkStreamIngest|BenchmarkInstantiation|BenchmarkTopKCold' \
  -benchmem -benchtime "$benchtime" -count "$count" . | tee "$raw"

# Parse `go test -bench` lines into JSON records. A -benchmem line looks
# like:  BenchmarkName-8  123  456 ns/op  789 B/op  12 allocs/op
# where -8 is GOMAXPROCS; the header takes it and the cpu: line.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" \
    -v gover="$(go version)" -v nproc="$(nproc)" \
    -v commit="$(git describe --always --dirty 2>/dev/null || echo unknown)" '
function jstr(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return "\"" s "\"" }
BEGIN { n = 0; procs = 1; cpu = "unknown"; body = "" }
/^cpu: / { cpu = substr($0, 6) }
/^Benchmark/ && / ns\/op/ {
    name = $1
    if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    iters = $2; ns = $3
    bytes = "null"; allocs = "null"; rows = "null"; peak = "null"
    for (i = 4; i <= NF; i++) {
        if ($i == "B/op") bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "rows/s") rows = $(i-1)
        if ($i == "peak-bytes") peak = $(i-1)
    }
    if (n++) body = body ","
    body = body sprintf("\n    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, iters, ns, bytes, allocs)
    # Custom metrics (only BenchmarkStreamIngest emits them today):
    # ingest throughput and the peak sampled heap during one ingest.
    if (rows != "null") body = body sprintf(", \"rows_per_s\": %s", rows)
    if (peak != "null") body = body sprintf(", \"peak_bytes\": %s", peak)
    body = body "}"
}
END {
    print "{"
    printf "  \"generated\": \"%s\",\n  \"benchtime\": \"%s\",\n", date, benchtime
    printf "  \"header\": {\"go\": %s, \"nproc\": %s, \"gomaxprocs\": %s, \"cpu\": %s, \"commit\": %s},\n", jstr(gover), nproc, procs, jstr(cpu), jstr(commit)
    printf "  \"results\": [%s\n  ]\n}\n", body
}
' "$raw" > "$out"

echo "wrote $out"
