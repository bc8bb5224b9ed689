#!/usr/bin/env bash
# bench.sh — run the key micro-benchmarks and record them as JSON,
# starting the perf-trajectory record (one BENCH_<tag>.json per PR).
#
# Usage:
#   ./scripts/bench.sh OUTPUT.json
#   ./scripts/bench.sh OUTPUT.json PARENT_DIR
#
# With PARENT_DIR, a checkout of the parent commit (a git clone or a
# git worktree), bench.sh runs paired: it compiles both trees' root test
# binaries and runs each tracked benchmark function alternately on the
# parent and on this tree, COUNT pairs of one run each, the parent first
# in odd pairs and second in even ones, so both sides see the same host
# drift. It writes OUTPUT.json for this tree and OUTPUT.parent.json (the
# .json suffix replaced) for the parent from that one session; each
# entry lists its runs in pair order (ns_runs), and each entry of this
# tree's file records how many pairs it won (won: its run was faster).
# A benchmark only one tree defines gets an entry in that tree's file
# alone. scripts/benchdiff.sh reads the pairs.
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
#   COUNT      runs per benchmark, or pairs of runs in paired mode
#              (default 1)
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
#                            relaccd append shape, and
#                            GroundSteps/Ie=300/extend one tuple under
#                            rules that ground steps
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

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 OUTPUT.json [PARENT_DIR]" >&2
    exit 2
fi
out="$1"
parent="${2:-}"
benchtime="${BENCHTIME:-1s}"
count="${COUNT:-1}"
if [ -n "$parent" ] && [ ! -f "$parent/go.mod" ]; then
    echo "bench.sh: $parent is not a checkout of this repository" >&2
    exit 2
fi

funcs="CheckPooled CheckCached ColdCheck OrderAdd OrderMax TopKCT900
IncrementalAdd UpdaterApply WALAppend RecoveryReplay TopKWarmQuery
StreamIngest Instantiation TopKCold"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# run BINARY FUNC COUNT RAWFILE appends COUNT runs of one benchmark
# function to RAWFILE (and the terminal).
run() {
    "$1" -test.run '^$' -test.bench "^Benchmark$2\$" -test.benchmem \
        -test.benchtime "$benchtime" -test.count "$3" -test.timeout 60m | tee -a "$4"
}

go test -c -o "$tmp/bench.test" .
if [ -z "$parent" ]; then
    for f in $funcs; do
        run "$tmp/bench.test" "$f" "$count" "$tmp/raw"
    done
else
    (cd "$parent" && go test -c -o "$tmp/parent.test" .)
    for f in $funcs; do
        for pair in $(seq 1 "$count"); do
            # One marker line per pair, so a benchmark one binary lacks
            # cannot shift the other side's pairing.
            echo "pair $pair" | tee -a "$tmp/raw" >> "$tmp/raw.parent"
            if [ $((pair % 2)) -eq 1 ]; then
                run "$tmp/parent.test" "$f" 1 "$tmp/raw.parent"
                run "$tmp/bench.test" "$f" 1 "$tmp/raw"
            else
                run "$tmp/bench.test" "$f" 1 "$tmp/raw"
                run "$tmp/parent.test" "$f" 1 "$tmp/raw.parent"
            fi
        done
    done
fi

# Parse `go test -bench` lines into one JSON record per benchmark. A
# -benchmem line looks like:
#   BenchmarkName-8  123  456 ns/op  789 B/op  12 allocs/op
# where -8 is GOMAXPROCS; the header takes it and the cpu: line.
parent_commit=""
if [ -n "$parent" ]; then
    parent_commit=$(cd "$parent" && git describe --always --dirty 2>/dev/null || echo unknown)
fi
python3 - "$tmp" "$out" "$benchtime" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    "$(go version)" "$(nproc)" "$(git describe --always --dirty 2>/dev/null || echo unknown)" \
    "$parent" "$parent_commit" <<'PY'
import json, os, re, statistics, sys

tmp, out, benchtime, date, gover, nproc, commit, parent, parent_commit = sys.argv[1:]
units = {"ns/op": "ns_per_op", "B/op": "bytes_per_op", "allocs/op": "allocs_per_op",
         # Custom metrics (only BenchmarkStreamIngest emits them today):
         # ingest throughput and the peak sampled heap during one ingest.
         "rows/s": "rows_per_s", "peak-bytes": "peak_bytes"}

def parse(raw):
    """Per benchmark, its runs in order; in a paired raw file each run
    carries the pair it belongs to."""
    procs, cpu, runs, pair = 1, "unknown", {}, None
    for line in open(raw):
        if line.startswith("cpu: "):
            cpu = line[5:].strip()
        f = line.split()
        if len(f) == 2 and f[0] == "pair":
            pair = int(f[1])
            continue
        if not f or not f[0].startswith("Benchmark") or "ns/op" not in f:
            continue
        name = f[0]
        m = re.search(r"-([0-9]+)$", name)
        if m:
            procs, name = int(m.group(1)), name[:m.start()]
        rec = {"iterations": float(f[1]), "pair": pair}
        for i in range(3, len(f)):
            if f[i] in units:
                rec[units[f[i]]] = float(f[i - 1])
        runs.setdefault(name, []).append(rec)
    return procs, cpu, runs

def num(x):
    return int(x) if x == int(x) else x

def median(rs, key):
    vals = [r[key] for r in rs if key in r]
    return num(statistics.median(vals)) if vals else None

def entry(name, rs):
    ns = [r["ns_per_op"] for r in rs]
    e = {"name": name, "runs": len(rs), "iterations": median(rs, "iterations"),
         "ns_per_op": median(rs, "ns_per_op"), "ns_min": num(min(ns)), "ns_max": num(max(ns)),
         "bytes_per_op": median(rs, "bytes_per_op"), "allocs_per_op": median(rs, "allocs_per_op")}
    for key in ("rows_per_s", "peak_bytes"):
        if median(rs, key) is not None:
            e[key] = median(rs, key)
    return e

def write(path, header, entries):
    lines = ["    " + json.dumps(e) for e in entries]
    with open(path, "w") as fh:
        fh.write('{\n  "generated": %s,\n  "benchtime": %s,\n  "header": %s,\n  "results": [\n%s\n  ]\n}\n'
                 % (json.dumps(date), json.dumps(benchtime), json.dumps(header), ",\n".join(lines)))

procs, cpu, runs = parse(os.path.join(tmp, "raw"))
header = {"go": gover, "nproc": int(nproc), "gomaxprocs": procs, "cpu": cpu, "commit": commit}
if not parent:
    write(out, header, [entry(n, rs) for n, rs in runs.items()])
    sys.exit(0)

pprocs, pcpu, pruns = parse(os.path.join(tmp, "raw.parent"))
pout = re.sub(r"(\.json)?$", ".parent.json", out, count=1)
header["paired_with"] = parent_commit
pheader = {"go": gover, "nproc": int(nproc), "gomaxprocs": pprocs, "cpu": pcpu,
           "commit": parent_commit, "paired_with": commit}
entries, pentries = [], []
for name, rs in runs.items():
    e = entry(name, rs)
    e["ns_runs"] = [num(r["ns_per_op"]) for r in rs]
    if name in pruns:
        theirs = {r["pair"]: r["ns_per_op"] for r in pruns[name]}
        paired = [(r["ns_per_op"], theirs[r["pair"]]) for r in rs if r["pair"] in theirs]
        e["pairs"] = len(paired)
        e["won"] = sum(1 for mine, other in paired if mine < other)
    entries.append(e)
for name, rs in pruns.items():
    e = entry(name, rs)
    e["ns_runs"] = [num(r["ns_per_op"]) for r in rs]
    pentries.append(e)
write(out, header, entries)
write(pout, pheader, pentries)
print("wrote " + pout)
PY

echo "wrote $out"
