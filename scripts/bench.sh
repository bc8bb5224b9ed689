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
# Each tracked benchmark function runs in its own test process, so no
# function's heap, GC pacing or warmed caches carry into the next one's
# numbers. With COUNT > 1 a benchmark gets one entry holding the median
# ns/op of its COUNT runs with their min and max (ns_min, ns_max) and
# the medians of the other metrics; scripts/benchdiff.sh reads that
# spread to tell a delta from noise.
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1s; CI smoke uses 1x)
#   COUNT      runs per benchmark        (default 1)
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

funcs="CheckPooled CheckCached ColdCheck OrderAdd OrderMax TopKCT900
IncrementalAdd UpdaterApply WALAppend RecoveryReplay TopKWarmQuery
StreamIngest Instantiation TopKCold"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -c -o "$tmp/bench.test" .
for f in $funcs; do
    "$tmp/bench.test" -test.run '^$' -test.bench "^Benchmark$f\$" -test.benchmem \
        -test.benchtime "$benchtime" -test.count "$count" -test.timeout 60m | tee -a "$tmp/raw"
done

# Parse `go test -bench` lines into one JSON record per benchmark. A
# -benchmem line looks like:
#   BenchmarkName-8  123  456 ns/op  789 B/op  12 allocs/op
# where -8 is GOMAXPROCS; the header takes it and the cpu: line.
python3 - "$tmp/raw" "$out" "$benchtime" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$(go version)" "$(nproc)" "$(git describe --always --dirty 2>/dev/null || echo unknown)" <<'PY'
import json, re, statistics, sys

raw, out, benchtime, date, gover, nproc, commit = sys.argv[1:]
procs, cpu, runs = 1, "unknown", {}
units = {"ns/op": "ns_per_op", "B/op": "bytes_per_op", "allocs/op": "allocs_per_op",
         # Custom metrics (only BenchmarkStreamIngest emits them today):
         # ingest throughput and the peak sampled heap during one ingest.
         "rows/s": "rows_per_s", "peak-bytes": "peak_bytes"}
for line in open(raw):
    if line.startswith("cpu: "):
        cpu = line[5:].strip()
    f = line.split()
    if not f or not f[0].startswith("Benchmark") or "ns/op" not in f:
        continue
    name = f[0]
    m = re.search(r"-([0-9]+)$", name)
    if m:
        procs, name = int(m.group(1)), name[:m.start()]
    rec = {"iterations": float(f[1])}
    for i in range(3, len(f)):
        if f[i] in units:
            rec[units[f[i]]] = float(f[i - 1])
    runs.setdefault(name, []).append(rec)

def num(x):
    return int(x) if x == int(x) else x

def median(rs, key):
    vals = [r[key] for r in rs if key in r]
    return num(statistics.median(vals)) if vals else None

lines = []
for name, rs in runs.items():
    ns = [r["ns_per_op"] for r in rs]
    e = {"name": name, "runs": len(rs), "iterations": median(rs, "iterations"),
         "ns_per_op": median(rs, "ns_per_op"), "ns_min": num(min(ns)), "ns_max": num(max(ns)),
         "bytes_per_op": median(rs, "bytes_per_op"), "allocs_per_op": median(rs, "allocs_per_op")}
    for key in ("rows_per_s", "peak_bytes"):
        if median(rs, key) is not None:
            e[key] = median(rs, key)
    lines.append("    " + json.dumps(e))
header = {"go": gover, "nproc": int(nproc), "gomaxprocs": procs, "cpu": cpu, "commit": commit}
with open(out, "w") as fh:
    fh.write('{\n  "generated": %s,\n  "benchtime": %s,\n  "header": %s,\n  "results": [\n%s\n  ]\n}\n'
             % (json.dumps(date), json.dumps(benchtime), json.dumps(header), ",\n".join(lines)))
PY

echo "wrote $out"
