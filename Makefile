# javmm build & verification entry points.
#
# `make check` is the full tier-1 gate: formatting, vet, the test suite and
# the race detector. Everything uses only the standard Go toolchain.

GO ?= go

.PHONY: all build test race vet fmt check bench bench-smoke bench-json examples

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package replays full paper tables and runs well past the
# default 10m under the race detector; give the suite headroom.
race:
	$(GO) test -race -timeout 30m ./...

# perfbench is a module of its own, so ./... skips it; vet it too, so a name
# it uses cannot disappear from the library unnoticed.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# fmt fails if any file is not gofmt-clean, and prints the offenders.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: fmt vet build test race

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke runs every Go benchmark exactly once — a compile-and-execute
# check, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# examples runs every program under examples/ once (`go build ./...` only
# compiles them); any example that exits non-zero fails the target.
examples:
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# bench-json records a perf-plane snapshot with the trajectory harness and
# compares it against the committed baseline. Deterministic drift and missing
# entries fail even in report-only mode; timing regressions are advisory here
# (CI hardware is too noisy for a hard wall-time gate).
BENCH_BASELINE ?= BENCH_0012.json
bench-json:
	mkdir -p bench-artifacts
	$(GO) run ./cmd/javmm-bench -label ci -out bench-artifacts/bench.json
	$(GO) run ./cmd/javmm-bench -compare -report-only $(BENCH_BASELINE) bench-artifacts/bench.json
