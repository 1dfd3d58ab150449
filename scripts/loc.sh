#!/bin/sh
# loc.sh [root] — non-test Go lines per package, plus data lines.
#
# Prints one line per package directory under internal/ and cmd/: the
# line count of its non-test .go files (every line, comments and blank
# lines included), then the total. _test.go files and testdata/ trees
# are left out. A last line counts the .json files under internal/
# outside testdata/ (embedded scenarios), which the total leaves out,
# so Go moved into data cannot pass for deletion. The final line counts
# the total again without blank lines and lines holding only a //
# comment, so a change that deletes comments cannot pass for a smaller
# program. This is the simplicity yardstick ROADMAP.md asks every change
# to report: run `make loc` before and after and compare the packages
# the change touched. root defaults to the repository.
set -e
cd "${1:-$(dirname "$0")/..}"

gofiles() {
	find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | LC_ALL=C sort
}

gofiles |
	xargs awk '
		{ dir = FILENAME; sub(/\/[^\/]*$/, "", dir); n[dir]++; total++ }
		END {
			sorter = "LC_ALL=C sort -k2"
			for (d in n) printf "%7d %s\n", n[d], d | sorter
			close(sorter)
			printf "%7d total\n", total
		}'

find internal -name '*.json' ! -path '*/testdata/*' | LC_ALL=C sort |
	xargs awk 'END { printf "%7d json lines under internal/ (not in the total)\n", NR }'

gofiles |
	xargs awk '!/^[ \t]*(\/\/.*)?$/ { n++ } END { printf "%7d total without blank and //-comment lines\n", n }'
