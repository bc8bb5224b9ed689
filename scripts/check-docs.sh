#!/bin/sh
# check-docs.sh — docs-consistency gate for CI.
#
# Fails when a markdown file referenced from Go doc comments or from
# README.md does not exist at the repository root, so the docs the code
# promises (DESIGN.md, EXPERIMENTS.md, ...) can never silently go
# missing again.
set -eu
cd "$(dirname "$0")/.."

fail=0
refs=$(
	{
		# Markdown paths mentioned in Go comment lines (relative to the
		# repository root, possibly in subdirectories).
		grep -rhE '^[[:space:]]*//' --include='*.go' . |
			grep -oE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.md' || true
		# Markdown paths mentioned in README.md.
		grep -oE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.md' README.md || true
	} | sort -u
)
for f in $refs; do
	if [ ! -e "$f" ]; then
		echo "check-docs: $f is referenced from docs but does not exist" >&2
		fail=1
	fi
done
# The DESIGN.md "Static analysis" analyzer table must list exactly the
# analyzers relacc-lint registers — both directions, so neither an
# undocumented analyzer nor a stale table row can land.
lint_names=$(go run ./cmd/relacc-lint -list | awk '{print $1}' | sort)
doc_names=$(awk '/^## Static analysis/,/^## Performance/' DESIGN.md |
	awk -F'|' '/^\|/ && $2 ~ /`/ { gsub(/[` ]/, "", $2); print $2 }' | sort)
if [ "$lint_names" != "$doc_names" ]; then
	echo "check-docs: DESIGN.md analyzer table is out of sync with relacc-lint -list" >&2
	echo "  registry:  $(echo "$lint_names" | tr '\n' ' ')" >&2
	echo "  DESIGN.md: $(echo "$doc_names" | tr '\n' ' ')" >&2
	fail=1
fi
# Every internal/... package README.md's package table or DESIGN.md's
# subsystem map names must have a directory, so deleting a package
# cannot leave a stale row behind.
pkgs=$(
	{
		awk '/^## Architecture/,/^## Performance/' README.md | grep '^|'
		awk '/^## Subsystem map/,/^## Data flow/' DESIGN.md | grep '^|'
	} | grep -oE '`internal/[A-Za-z0-9_/]+`' | tr -d '`' | sort -u
)
for p in $pkgs; do
	if [ ! -d "$p" ]; then
		echo "check-docs: $p is named in a package table but has no directory" >&2
		fail=1
	fi
done

if [ "$fail" -eq 0 ]; then
	echo "check-docs: all referenced markdown files exist"
	echo "check-docs: DESIGN.md analyzer table matches relacc-lint -list"
	echo "check-docs: every package-table row names an existing package"
fi
exit "$fail"
