#!/bin/sh
# latest-bench.sh [dir] — print the newest committed benchmark snapshot
# of dir (default: the repository root), the BENCH_pr<N>.json with the
# highest N (numerically, so pr27 follows pr9). bench.sh writes it and
# benchgate.sh gates against it unless told otherwise, so no script,
# Makefile rule or CI step names a snapshot itself. Outside a git
# checkout the snapshots present in the directory stand in for the
# committed ones.
set -e
cd "${1:-$(dirname "$0")/..}"

snaps=$(git ls-files 'BENCH_pr*.json' 2>/dev/null || true)
if [ -z "$snaps" ]; then
	snaps=$(ls BENCH_pr*.json 2>/dev/null || true)
fi
echo "$snaps" | sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1 &/p' | sort -n | tail -n 1 | cut -d' ' -f2
