#!/bin/sh
# benchgate.sh [new.json] [baseline.json] — the alloc-regression gate.
#
# Compares a fresh benchmark snapshot (bench.sh's JSON output) against
# the committed per-PR baseline and:
#
#   - FAILS (exit 1) if any benchmark's allocs/op rose above the
#     baseline. Allocation counts are deterministic — unlike ns/op they
#     do not wobble with machine load — so any increase is a genuine
#     hot-path regression (a pooled object escaping, a slice rebuilt per
#     point) and the gate can be exact.
#   - WARNS on ns/op drift beyond ±30%. Time is machine-dependent
#     (shared CI runners wobble ±15% run to run), so speed is reported,
#     not enforced; read the warnings against the uploaded bench.txt.
#   - FAILS (exit 1) when a baseline benchmark is missing from the new
#     snapshot, so coverage cannot silently shrink. A deliberately
#     retired benchmark must be removed from the baseline in the same
#     PR that deletes it.
#
# With no first argument the suite is run first (scripts/bench.sh all)
# into bench-gate.json. The baseline defaults to the newest committed
# snapshot (scripts/latest-bench.sh); after a deliberate perf change,
# regenerate it with `scripts/bench.sh all` and commit the diff.
set -e
cd "$(dirname "$0")/.."

NEW="${1:-}"
BASE="${2:-$(scripts/latest-bench.sh)}"

if [ -z "$NEW" ]; then
	NEW=bench-gate.json
	scripts/bench.sh all "$NEW"
fi
for f in "$NEW" "$BASE"; do
	if [ ! -f "$f" ]; then
		echo "benchgate: missing snapshot $f" >&2
		exit 2
	fi
done

# Each snapshot line is one record:
#   {"name": "BenchmarkX", "ns_op": 123.4, "b_op": 16, "allocs_op": 2}
# awk pulls the fields by key, keeps the first file as the baseline,
# then compares the second against it.
awk -v base="$BASE" -v new="$NEW" '
function field(s, key,    pre) {
	pre = "\"" key "\": "
	if (match(s, pre "[-+0-9.eE]+")) {
		return substr(s, RSTART + length(pre), RLENGTH - length(pre))
	}
	return ""
}
function record(s) {
	name = field(s, "name")
	if (name != "") return 1
	if (match(s, /"name": "[^"]+"/)) {
		name = substr(s, RSTART + 9, RLENGTH - 10)
		return 1
	}
	return 0
}
FNR == 1 { filenum++ }
/"name"/ {
	if (!record($0)) next
	if (filenum == 1) {
		bns[name] = field($0, "ns_op")
		ballocs[name] = field($0, "allocs_op")
		seenbase[name] = 1
	} else {
		nns[name] = field($0, "ns_op")
		nallocs[name] = field($0, "allocs_op")
		seennew[name] = 1
	}
}
END {
	fail = 0
	for (n in seenbase) {
		if (!(n in seennew)) {
			printf "benchgate: FAIL %s in %s but missing from %s\n", n, base, new
			fail = 1
			continue
		}
		if (ballocs[n] != "" && nallocs[n] != "" && nallocs[n] + 0 > ballocs[n] + 0) {
			printf "benchgate: FAIL %s allocs/op %s -> %s (baseline %s)\n", n, ballocs[n], nallocs[n], base
			fail = 1
		}
		if (bns[n] + 0 > 0) {
			drift = nns[n] / bns[n] - 1
			if (drift > 0.30 || drift < -0.30) {
				printf "benchgate: WARN %s ns/op %s -> %s (%+.0f%%)\n", n, bns[n], nns[n], drift * 100
			}
		}
	}
	if (fail) {
		print "benchgate: gate failed — see FAIL lines above"
		exit 1
	}
	print "benchgate: OK — no allocs/op regressions vs " base
}
' "$BASE" "$NEW"
