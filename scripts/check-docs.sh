#!/bin/sh
# check-docs.sh — docs-consistency gate for CI.
#
# Fails when a markdown file referenced from Go doc comments or from
# README.md does not exist at the repository root, so the docs the code
# promises (DESIGN.md, EXPERIMENTS.md, ...) can never silently go
# missing again; and when the docs name an analyzer, a package, a test
# function or a command-line flag the code does not define.
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
# Every Test…, Benchmark… or Fuzz… function DESIGN.md, README.md or
# EXPERIMENTS.md names must be defined in some _test.go file, so
# deleting or renaming a test cannot leave a stale reference behind.
tests=$(grep -rhoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' --include='*_test.go' . |
	sed 's/^func //' | sort -u)
for f in DESIGN.md README.md EXPERIMENTS.md; do
	for name in $(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*' "$f" | sort -u); do
		if ! echo "$tests" | grep -qx "$name"; then
			echo "check-docs: $f names $name, which no _test.go file defines" >&2
			fail=1
		fi
	done
done
# Every flag a documented relacc or relaccd command line passes must be
# one the binary defines, so a deleted flag cannot linger in the docs.
# A command line starts at a relacc/relaccd word and ends at the line's
# end, a closing backtick or a shell separator outside [...]; backslash
# continuations are joined, and so are the indented continuation lines
# of a package doc's usage block.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/relacc ./cmd/relaccd
flags() { "$@" -h 2>&1 | awk '/^  -/ { print $1 }' | tr '\n' ' '; }
relacc_flags=$(flags "$bin/relacc" topk)
relaccd_flags=$(flags "$bin/relaccd")
for f in README.md EXPERIMENTS.md cmd/relacc/main.go cmd/relaccd/main.go; do
	case "$f" in
	*.go) awk '/^package / { exit } { sub(/^\/\/ ?/, ""); print }' "$f" ;;
	*) cat "$f" ;;
	esac |
		awk '
			{ while (/\\$/ && (getline next_line) > 0) { sub(/\\$/, ""); $0 = $0 " " next_line } }
			/^\t +/ && held ~ /^\t/ { held = held " " $0; next }
			{ if (n++) print held; held = $0 }
			END { if (n) print held }
		' |
		awk -v file="$f" -v relacc="$relacc_flags" -v relaccd="$relaccd_flags" '
			BEGIN {
				n = split(relacc, a, " "); for (i = 1; i <= n; i++) ok["relacc", a[i]] = 1
				n = split(relaccd, a, " "); for (i = 1; i <= n; i++) ok["relaccd", a[i]] = 1
			}
			{
				cmd = ""; depth = 0
				for (i = 1; i <= NF; i++) {
					tok = $i; t = tok
					gsub(/^[`"(\[]+/, "", t)
					if (cmd == "") {
						if (t ~ /(^|\/)relaccd?$/ && gsub(/`/, "`", tok) < 2)
							cmd = (t ~ /d$/) ? "relaccd" : "relacc"
						continue
					}
					if (depth == 0 && tok ~ /^(\||\|\||&|&&|;|[0-9]?[<>].*)$/) { cmd = ""; continue }
					if (t ~ /^-[A-Za-z]/) {
						sub(/[^A-Za-z0-9_-].*$/, "", t)
						if (!((cmd, t) in ok)) {
							printf "check-docs: %s uses %s %s, which %s does not define\n", file, cmd, t, cmd > "/dev/stderr"
							bad = 1
						}
					}
					depth += gsub(/\[/, "[", tok) - gsub(/\]/, "]", tok)
					if (tok ~ /`/) cmd = ""
				}
			}
			END { exit bad }
		' || fail=1
done

if [ "$fail" -eq 0 ]; then
	echo "check-docs: all referenced markdown files exist"
	echo "check-docs: DESIGN.md analyzer table matches relacc-lint -list"
	echo "check-docs: every package-table row names an existing package"
	echo "check-docs: every test, benchmark and fuzz target the docs name exists"
	echo "check-docs: every documented relacc/relaccd flag exists"
fi
exit "$fail"
