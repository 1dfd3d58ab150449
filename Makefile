GO ?= go

.PHONY: all build test vet fmt lint ci race perfbench bench benchgate loc clean

all: build test vet

# build compiles every package and then explicitly links every command
# binary, so a main-package-only breakage (apctop once had no tests
# and was exercised by nothing but the package walk) fails this target
# by name. The apctop smoke test (cmd/apctop/main_test.go) additionally
# runs one observer interval under `make test`.
build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/apcsim
	$(GO) build -o /dev/null ./cmd/apctop
	$(GO) build -o /dev/null ./cmd/tracegen

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# lint always runs apcvet — the repo's own invariant suite needs
# nothing beyond the Go toolchain, so unlike the external analyzers
# below it has no "not installed" escape hatch — and then runs the
# deeper external analyzers when they are installed, skipping them
# with a pointer when they are not, so `make ci` stays runnable on a
# fresh checkout. The GitHub workflow installs both tools before
# running ci, so the skip never fires there — absent-locally is
# tolerated, absent-in-CI is not.
lint:
	$(GO) run ./cmd/apcvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The full CI gate: formatting, static checks, a build of every package
# (including examples/quickstart, which has no tests), and the test
# suite — once natively and once under the race detector, so the
# parallel-sweep race-cleanliness claim is enforced, not asserted. The
# test suite also locks the golden reports and parses every
# examples/scenarios/*.json (TestExampleScenariosParse), so a schema
# change that orphans the shipped examples fails here. The benchmark
# module is vetted and tested last (see perfbench below).
ci: fmt vet lint build test race perfbench

# The whole module under the race detector (~1 min on one CPU).
race:
	$(GO) test -race ./...

# perfbench is its own Go module, so ./... above never builds it, yet it
# drives the simulator's public API (replay.NewReader, the scenario
# loader) and TestMirrorParity checks its mirror against scenario.Run.
# That test loads fleet-replay.json, whose recording the benchmark
# writes into .bench_build/inputs on its first fleet-replay run, so a
# fresh checkout makes one short run first (~15 s with a cold build
# cache; skipped once the recording exists).
perfbench:
	@test -f .bench_build/inputs/fleet-replay.trace || \
		bash perfbench/run.sh --workload fleet-replay --seed 1 --seconds 0.1 --trace 0 >/dev/null
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark suite: benchstat-comparable text in bench.txt plus a
# machine-readable snapshot recording the perf trajectory (by default
# the newest committed BENCH_pr*.json, regenerated in place; pass a new
# name as the second bench.sh argument to start the next one).
bench:
	scripts/bench.sh

# The alloc-regression gate: reruns the suite into bench-gate.json and
# fails if any benchmark allocates more per op than the newest
# committed BENCH_pr*.json baseline (ns/op drift only warns). CI runs
# this on every push.
benchgate:
	scripts/benchgate.sh

# Non-test Go lines per package under internal/ and cmd/ — the
# simplicity yardstick each change reports before and after — then the
# embedded JSON data lines under internal/ on their own line, then the
# total without blank and //-comment lines.
loc:
	@sh scripts/loc.sh

clean:
	rm -f bench.txt
