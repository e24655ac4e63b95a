# Tier-1 verification targets. `make ci` is the gate every change must
# pass: vet, the full test suite under the race detector, a one-shot
# smoke of the derivation benchmarks (exercising the streaming engine end
# to end), an end-to-end serving smoke of cmd/mrslserve over HTTP, the
# served-path benchmark's own test, and a one-shot publish of the
# concurrent-serving benchmark into BENCH_engine.json.

GO ?= go

.PHONY: ci vet test race metrics-lint bench-smoke serve-smoke chaos-smoke perfbench-smoke bench-serve bench-planner bench-watch bench-check bench-baseline bench-publish fuzz-smoke build

ci: vet race metrics-lint bench-smoke serve-smoke chaos-smoke perfbench-smoke bench-serve bench-check

# Assert every EngineStats counter is exported on GET /metrics and named
# in README.md's metric table, so the docs and the exposition surface
# cannot drift from the struct.
metrics-lint:
	sh scripts/metrics-lint.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# scheduling delays. Asserts the process survives, every non-degraded
# answer stays bit-identical to a fault-free oracle, and every degraded
# [lo, hi] interval contains the oracle mass. -count=1 defeats the test
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

# Publish the concurrent serving benchmark (1/4/16 overlapping streams on
# one engine) as go-test JSON events, so serving throughput is tracked
# run over run. The benchmark warms the engine caches before its timer
# starts, so 5 steady-state iterations give a stable, run-to-run
# comparable figure (the seed published a single cold iteration, which
# measured warmup, not serving).
bench-serve:
	$(GO) test -run=NONE -bench=BenchmarkEngineConcurrent -benchtime=5x -json . > BENCH_engine.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_engine.json | head -3

# Publish the query benchmarks — planning (classification, selectivity
# ordering, memoized dissociation intervals) plus the per-statement SPJ
# paths (safe hierarchical join, dissociated exists) — so query serving
# latency is tracked run over run. BenchmarkQueryAdaptive (the topk wave
# cut) and BenchmarkQueryAdversarial (a thresholded count over the full
# adversarial mix) run full evaluations, chains included, on fresh
# engines, so they get a smaller iteration count appended to the same
# log.
bench-planner:
	$(GO) test -run=NONE -bench='BenchmarkQueryPlanner|BenchmarkQuerySafeJoin|BenchmarkQueryDissociated' -benchtime=1000x -json . > BENCH_planner.json
	$(GO) test -run=NONE -bench='BenchmarkQueryAdaptive|BenchmarkQueryAdversarial' -benchtime=100x -json . >> BENCH_planner.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_planner.json | head -8

# Fail ci when serving throughput or planning latency regresses >30%
# against the committed baselines (BENCH_baseline.json /
# BENCH_planner_baseline.json; refresh them deliberately with
# `make bench-baseline` when a PR legitimately moves the needle).
bench-check: bench-serve bench-planner
	sh scripts/bench-check.sh BENCH_baseline.json BENCH_engine.json 30
	sh scripts/planner-check.sh BENCH_planner_baseline.json BENCH_planner.json 30

bench-baseline: bench-serve bench-planner
	cp BENCH_engine.json BENCH_baseline.json
	cp BENCH_planner.json BENCH_planner_baseline.json

# Publish the subscription-delivery load generator: many watchers on one
# live dataset while observation deltas stream in, the workload behind
# the mrsl_watch_notify_seconds histogram.
bench-watch:
	$(GO) test -run=NONE -bench=BenchmarkWatchFanout -benchmem -benchtime=100x -json . > BENCH_watch.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_watch.json | head -3

# Publish the wider perf trajectory — derivation, lattice matching,
# Gibbs, and selective-query benchmarks with allocation counts —
# alongside the serving figures, so BENCH_derive.json tracks the hot
# paths across PRs (BenchmarkQuerySelective pits Engine.Query's pruning
# against derive-then-filter on the same workload).
bench-publish: bench-serve bench-watch
	$(GO) test -run=NONE -bench 'Derive|Match|Gibbs|Query' -benchmem -benchtime=100x -json . ./internal/core ./internal/gibbs > BENCH_derive.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_derive.json | head -14

# Short fuzzing pass over the four external input parsers (CSV
# relations, BN topology DSL, query predicate syntax, /observe bodies).
fuzz-smoke:
	$(GO) test -run=NONE -fuzz=FuzzReadCSV -fuzztime=10s ./internal/relation
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=10s ./internal/bn
	$(GO) test -run=NONE -fuzz=FuzzParseQuery -fuzztime=10s ./internal/query
	$(GO) test -run=NONE -fuzz=FuzzParseObserve -fuzztime=10s ./cmd/mrslserve
