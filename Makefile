# Tier-1 verification targets. `make ci` is the gate every change must
# pass: gofmt, vet of both modules, the full test suite under the race
# detector, a one-shot smoke of the derivation benchmarks (exercising the
# streaming engine end to end), an end-to-end serving smoke of
# cmd/mrslserve over HTTP, the served-path benchmark's own test, and the
# benchmark gate against the parent commit.

GO ?= go
GOFMT ?= gofmt

.PHONY: ci fmt vet test race metrics-lint bench-smoke serve-smoke chaos-smoke perfbench-smoke bench-gate fuzz-smoke build

ci: fmt vet race metrics-lint bench-smoke serve-smoke chaos-smoke perfbench-smoke bench-gate

# Assert every EngineStats counter is exported on GET /metrics and named
# in README.md's metric table, and every mrsl_engine_* name README.md
# mentions is exported, so the docs and the exposition surface cannot
# drift from the struct in either direction.
metrics-lint:
	sh scripts/metrics-lint.sh

build:
	$(GO) build ./...

# Fail when any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

# perfbench/ is a module of its own, so ./... does not reach it.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run=NONE -bench=Derive -benchtime=1x .

# Build mrslserve, boot it on a random port, POST one derivation over
# HTTP, and check the streamed NDJSON and the stats endpoint.
serve-smoke:
	sh scripts/serve-smoke.sh

# Fault-injection soak under the race detector: concurrent derive,
# query, observe, and snapshot traffic on one engine while injected
# faults force panics in every worker pool, cache eviction storms, and
# scheduling delays. Asserts every armed fault point saw enough arrivals
# to fire, the process survives, every non-degraded answer stays
# bit-identical to a fault-free oracle, and every degraded [lo, hi]
# interval contains the oracle mass. -count=1 defeats the test
# cache so the soak actually runs every time.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSoak' .
	$(GO) test -race -count=1 -run 'TestPanicBecomesTypedError|TestPrefetchPanicKeepsStreamExact|TestSinkPanicBecomesEmitError' ./internal/derive

# The served-path benchmark's own test (TestWorkloadsTiny): builds
# mrslserve from this checkout and runs every BENCHMARK.json workload at
# scale 0.2 with its output checks. perfbench/ is a separate module, so
# the root ./... targets never compile it.
perfbench-smoke:
	cd perfbench && $(GO) test -count=1 .

# Time the change against its parent commit on this host: HEAD when the
# working tree has changes, else HEAD^. Ten alternating pairs of the
# concurrent-serving, cold-inference, planner, SPJ, adaptive-query and
# warm live-read benchmarks; a metric fails only when the change loses at least 9 of the
# 10 pairs, its median is more than 30% worse, and the medians differ by
# more than the parent's interquartile range (scripts/benchgate).
bench-gate:
	$(GO) run ./scripts/benchgate

# Short fuzzing pass over the four external input parsers (CSV
# relations, both readers against encoding/csv; BN topology DSL; query
# predicate syntax; /observe bodies), plus the NDJSON sink's byte
# appender against encoding/json. go test fuzzes one target per run, so
# each -fuzz pattern is anchored.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzReadCSV$$' -fuzztime=10s ./internal/relation
	$(GO) test -run=NONE -fuzz='^FuzzReadCSVInSchema$$' -fuzztime=10s ./internal/relation
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/bn
	$(GO) test -run=NONE -fuzz=FuzzParseQuery -fuzztime=10s ./internal/query
	$(GO) test -run=NONE -fuzz=FuzzParseObserve -fuzztime=10s ./cmd/mrslserve
	$(GO) test -run=NONE -fuzz=FuzzJSONLSinkEmit -fuzztime=10s ./internal/derive
