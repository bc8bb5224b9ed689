#!/usr/bin/env bash
# benchdiff.sh — compare two BENCH_*.json files produced by bench.sh and
# print per-benchmark deltas, so a PR can state its regressions and wins
# mechanically instead of eyeballing two JSON blobs.
#
# Usage:
#   ./scripts/benchdiff.sh BENCH_pr7.json BENCH_pr8.json
#   ./scripts/benchdiff.sh OUT.parent.json OUT.json
#
# Output: one line per benchmark present in either file, with old and
# new ns/op, each side's spread (min..max over its runs, from a
# COUNT > 1 snapshot), the delta percentage (negative = faster), a
# verdict, and the allocs/op movement. Benchmarks present in only one
# file are listed, not compared.
#
# Two snapshots taken at different times on a shared host drift apart
# by more than either one's spread, so only a paired session (bench.sh
# OUT.json PARENT_DIR, which alternates the two binaries) can resolve a
# delta. For the two files of such a session the verdict reads
# "won k/n" — the new side was faster in k of n pairs — followed by
# "faster" or "slower" when the delta is resolved: one side won at
# least 9 of every 10 pairs and the medians differ by more than the
# old side's interquartile range; otherwise "unresolved". Any other
# two snapshots get "unpaired" and no verdict.
# Benchmarks carrying the ingest memory metrics (rows_per_s,
# peak_bytes — see BenchmarkStreamIngest) get a second line with their
# deltas. Both snapshots' headers (Go version, nproc, GOMAXPROCS, CPU,
# commit — see bench.sh) are printed first, with a warning when the
# machine fields differ; snapshots recorded before bench.sh wrote a
# header still diff. Exit status is always 0; the judgement is the
# reader's.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD.json NEW.json" >&2
    exit 2
fi

python3 - "$1" "$2" <<'EOF'
import json, statistics, sys

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("header"), {r["name"]: r for r in doc.get("results", [])}

old_path, new_path = sys.argv[1], sys.argv[2]
(old_hdr, old), (new_hdr, new) = load(old_path), load(new_path)

for label, path, hdr in (("old", old_path, old_hdr), ("new", new_path, new_hdr)):
    if hdr is None:
        print(f"{label}: {path}: no header")
    else:
        print(f"{label}: {path}: {hdr.get('go')}, nproc {hdr.get('nproc')}, "
              f"GOMAXPROCS {hdr.get('gomaxprocs')}, cpu {hdr.get('cpu')}, commit {hdr.get('commit')}")
if old_hdr is not None and new_hdr is not None:
    differ = [k for k in ("go", "nproc", "gomaxprocs", "cpu") if old_hdr.get(k) != new_hdr.get(k)]
    if differ:
        print(f"WARNING: the snapshots differ in {', '.join(differ)}; deltas mix machines")
print()

names = list(dict.fromkeys(list(old) + list(new)))
width = max((len(n) for n in names), default=4)
# The files of one paired session name each other's commit.
paired = (old_hdr is not None and new_hdr is not None
          and new_hdr.get("paired_with") is not None
          and new_hdr.get("paired_with") == old_hdr.get("commit")
          and old_hdr.get("paired_with") == new_hdr.get("commit"))
print("paired session: verdicts from the pairs" if paired else
      "unpaired snapshots: deltas are not verdicts (pair them with bench.sh OUT.json PARENT_DIR)")
print()

def iqr(r):
    runs = sorted(r.get("ns_runs", []))
    if len(runs) < 2:
        return 0
    q = statistics.quantiles(runs, n=4, method="inclusive")
    return q[2] - q[0]

def verdict(o, w):
    """The paired verdict on one benchmark, or "unpaired"."""
    if not paired or "won" not in w or not w.get("pairs"):
        return "unpaired"
    k, n = w["won"], w["pairs"]
    v = f"won {k}/{n}"
    apart = abs(w["ns_per_op"] - o["ns_per_op"]) > iqr(o)
    if 10 * k >= 9 * n and apart:
        return v + " faster"
    if 10 * (n - k) >= 9 * n and apart:
        return v + " slower"
    return v + " unresolved"

def spread(r):
    """The min..max of a benchmark's runs; a one-run snapshot's single value."""
    return r.get("ns_min", r["ns_per_op"]), r.get("ns_max", r["ns_per_op"])

def span(r):
    lo, hi = spread(r)
    return f"{lo}..{hi}" if lo != hi else "-"

print(f"{'benchmark':<{width}}  {'old ns/op':>14} {'(spread)':>22}  {'new ns/op':>14} {'(spread)':>22}  {'delta':>8}  {'verdict':<22}  allocs/op")
for n in names:
    o, w = old.get(n), new.get(n)
    if o is None:
        print(f"{n:<{width}}  {'-':>14} {'':>22}  {w['ns_per_op']:>14} {span(w):>22}  {'new':>8}  {'only in new':<22}  {w.get('allocs_per_op')}")
        continue
    if w is None:
        print(f"{n:<{width}}  {o['ns_per_op']:>14} {span(o):>22}  {'-':>14} {'':>22}  {'gone':>8}  {'only in old':<22}  -")
        continue
    ons, wns = o["ns_per_op"], w["ns_per_op"]
    delta = "n/a" if not ons else f"{(wns - ons) / ons * 100:+.1f}%"
    oa, wa = o.get("allocs_per_op"), w.get("allocs_per_op")
    allocs = f"{oa}" if oa == wa else f"{oa} -> {wa}"
    print(f"{n:<{width}}  {ons:>14} {span(o):>22}  {wns:>14} {span(w):>22}  {delta:>8}  {verdict(o, w):<22}  {allocs}")
    # The ingest memory metrics, when both sides carry them.
    extras = []
    for key, label, better_down in (("peak_bytes", "peak MiB", True),
                                    ("rows_per_s", "rows/s", False)):
        ov, wv = o.get(key), w.get(key)
        if ov is None and wv is None:
            continue
        if ov is None or wv is None or not ov:
            extras.append(f"{label}: {ov} -> {wv}")
            continue
        pct = (wv - ov) / ov * 100
        if key == "peak_bytes":
            extras.append(f"{label}: {ov/2**20:.1f} -> {wv/2**20:.1f} ({pct:+.1f}%)")
        else:
            extras.append(f"{label}: {ov:.0f} -> {wv:.0f} ({pct:+.1f}%)")
    if extras:
        print(f"{'':<{width}}  {'; '.join(extras)}")
EOF
