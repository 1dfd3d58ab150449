#!/bin/sh
# loc.sh [root] — non-test Go lines per package.
#
# Prints one line per package directory under internal/ and cmd/: the
# line count of its non-test .go files (every line, comments and blank
# lines included), then the total. _test.go files and testdata/ trees
# are left out. This is the simplicity yardstick ROADMAP.md asks every
# change to report: run `make loc` before and after and compare the
# packages the change touched. root defaults to the repository.
set -e
cd "${1:-$(dirname "$0")/..}"

find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | LC_ALL=C sort |
	xargs awk '
		{ dir = FILENAME; sub(/\/[^\/]*$/, "", dir); n[dir]++; total++ }
		END {
			sorter = "LC_ALL=C sort -k2"
			for (d in n) printf "%7d %s\n", n[d], d | sorter
			close(sorter)
			printf "%7d total\n", total
		}'
