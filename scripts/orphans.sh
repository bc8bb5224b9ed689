#!/bin/sh
# orphans.sh — fails when a package under internal/ has no importer but
# its own tests: code no binary, example or other package reaches is
# dead weight the suites keep alive. Any other package importing it,
# from its code or its tests, counts as a use.
set -eu
cd "$(dirname "$0")/.."

go list -f '{{.ImportPath}} {{.Imports}} {{.TestImports}} {{.XTestImports}}' ./... |
	tr -d '[]' |
	awk '
		{
			pkgs[$1] = 1
			for (i = 2; i <= NF; i++)
				if ($i != $1)
					used[$i] = 1
		}
		END {
			bad = 0
			for (p in pkgs)
				if (p ~ /\/internal\// && !(p in used)) {
					print "orphans: " p " is imported only by its own tests" > "/dev/stderr"
					bad = 1
				}
			if (!bad)
				print "orphans: every internal package has an importer besides its own tests"
			exit bad
		}'
