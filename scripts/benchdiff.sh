#!/usr/bin/env bash
# benchdiff.sh — compare two BENCH_*.json files produced by bench.sh and
# print per-benchmark deltas, so a PR can state its regressions and wins
# mechanically instead of eyeballing two JSON blobs.
#
# Usage:
#   ./scripts/benchdiff.sh BENCH_pr7.json BENCH_pr8.json
#
# Output: one line per benchmark present in either file, with old and
# new ns/op, each side's spread (min..max over its runs, from a
# COUNT > 1 snapshot), the delta percentage (negative = faster), and
# the allocs/op movement. A delta is marked "noise" when the two
# spreads overlap: then not every run of one side beat every run of
# the other. Benchmarks present in only one file are flagged.
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
import json, sys

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

def spread(r):
    """The min..max of a benchmark's runs; a one-run snapshot's single value."""
    return r.get("ns_min", r["ns_per_op"]), r.get("ns_max", r["ns_per_op"])

def span(r):
    lo, hi = spread(r)
    return f"{lo}..{hi}" if lo != hi else "-"

print(f"{'benchmark':<{width}}  {'old ns/op':>14} {'(spread)':>22}  {'new ns/op':>14} {'(spread)':>22}  {'delta':>8}  allocs/op")
for n in names:
    o, w = old.get(n), new.get(n)
    if o is None:
        print(f"{n:<{width}}  {'-':>14} {'':>22}  {w['ns_per_op']:>14} {span(w):>22}  {'new':>8}  {w.get('allocs_per_op')}")
        continue
    if w is None:
        print(f"{n:<{width}}  {o['ns_per_op']:>14} {span(o):>22}  {'-':>14} {'':>22}  {'gone':>8}  -")
        continue
    ons, wns = o["ns_per_op"], w["ns_per_op"]
    delta = "n/a" if not ons else f"{(wns - ons) / ons * 100:+.1f}%"
    (olo, ohi), (wlo, whi) = spread(o), spread(w)
    noise = " noise" if ons and wns != ons and olo <= whi and wlo <= ohi else ""
    oa, wa = o.get("allocs_per_op"), w.get("allocs_per_op")
    allocs = f"{oa}" if oa == wa else f"{oa} -> {wa}"
    print(f"{n:<{width}}  {ons:>14} {span(o):>22}  {wns:>14} {span(w):>22}  {delta:>8}{noise}  {allocs}")
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
