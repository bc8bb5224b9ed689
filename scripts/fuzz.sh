#!/usr/bin/env bash
# fuzz.sh — run the fuzzing engine on every fuzz target of the module.
#
# `go test` replays only each target's seed corpus. This script runs
# `go test -fuzz` once per target, for FUZZTIME each (default 10s; any
# -fuzztime value, such as 30s or 5000x), so new inputs are searched
# for the value, dictionary, log, guard and order invariants the
# targets pin. A failing input is written under its package's
# testdata/fuzz/, as `go test -fuzz` does; committed there, it replays
# in every plain `go test` from then on. Every target runs even after
# one fails, and the script exits 1 if any did.
#
# Usage: ./scripts/fuzz.sh
#        FUZZTIME=1m ./scripts/fuzz.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime=${FUZZTIME:-10s}
# `go test -list` prints a package's matching functions, then its "ok"
# line; print one "package target..." line per package that has any.
targets=$(go test -list '^Fuzz' ./... | awk '
	/^Fuzz/ { names = names " " $1 }
	/^ok/ { if (names != "") print $2 names; names = "" }')
if [ -z "$targets" ]; then
	echo "fuzz: found no fuzz targets" >&2
	exit 1
fi

fail=0
while read -r pkg names; do
	for name in $names; do
		echo "== $pkg $name ($fuzztime)"
		if ! go test -run '^$' -fuzz "^${name}\$" -fuzztime "$fuzztime" "$pkg"; then
			echo "fuzz: $name in $pkg failed" >&2
			fail=1
		fi
	done
done <<EOF
$targets
EOF
exit $fail
