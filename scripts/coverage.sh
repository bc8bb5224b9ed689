#!/usr/bin/env bash
# coverage.sh — per-package statement coverage with regression floors.
#
# The floors guard the two kernels whose tests carry the correctness
# argument (the chase and the top-k search, including the PR 7
# cached ≡ uncached equivalence layer): a PR that deletes or skips
# their tests fails here even if everything still passes. Floors sit a
# couple of points under the measured coverage at the time they were
# set, so organic refactoring has headroom while wholesale test loss
# does not. Raise a floor when the measured number rises; never lower
# one to make a PR pass.
#
# Usage: ./scripts/coverage.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# package  floor(%)   measured at last update (PR 16): chase 95.9, topk 94.5
floors="
./internal/chase 93
./internal/topk 92
"

fail=0
while read -r pkg floor; do
  [ -z "$pkg" ] && continue
  line=$(go test -cover "$pkg" | tail -1)
  echo "$line"
  pct=$(echo "$line" | grep -o '[0-9.]*% of statements' | cut -d% -f1)
  if [ -z "$pct" ]; then
    echo "coverage: could not parse coverage for $pkg" >&2
    fail=1
    continue
  fi
  if ! awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p >= f) }'; then
    echo "coverage: $pkg at ${pct}% is below the ${floor}% floor" >&2
    fail=1
  fi
done <<EOF
$floors
EOF

exit $fail
