#!/bin/sh
# bench.sh [sim|all] [snapshot.json] — run the benchmark suite and
# snapshot the results.
#
# Writes:
#   bench.txt      raw `go test -bench` output, benchstat-comparable
#                  (benchstat old.txt bench.txt)
#   snapshot.json  parsed {name, ns_op, b_op, allocs_op} records; the
#                  second argument names the file. The default is the
#                  newest committed snapshot (scripts/latest-bench.sh),
#                  which a deliberate perf change regenerates in place;
#                  a change that starts a new perf-trajectory entry
#                  names its own BENCH_pr<N>.json, and earlier
#                  snapshots stay committed.
set -e
cd "$(dirname "$0")/.."

MODE="${1:-all}"
OUT=bench.txt
SNAP="${2:-$(scripts/latest-bench.sh)}"
if [ -z "$SNAP" ]; then
	echo "bench.sh: no BENCH_pr*.json snapshot to default to; name one" >&2
	exit 2
fi

case "$MODE" in
sim)
	PKGS=./internal/sim/
	;;
all)
	PKGS="./internal/sim/ ."
	;;
*)
	echo "usage: $0 [sim|all] [snapshot.json]" >&2
	exit 2
	;;
esac

go test -run=XXX -bench=. -benchmem -benchtime=1s $PKGS | tee "$OUT"

# Parse "BenchmarkName  N  ns/op  B/op  allocs/op [metrics...]" lines
# into a JSON array.
awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = ""; bop = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "B/op")      bop = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!first) printf ",\n"
	first = 0
	printf "  {\"name\": \"%s\", \"ns_op\": %s", name, ns
	if (bop != "")    printf ", \"b_op\": %s", bop
	if (allocs != "") printf ", \"allocs_op\": %s", allocs
	printf "}"
}
END { print "\n]" }
' "$OUT" > "$SNAP"

echo "wrote $OUT and $SNAP"
