// Package repro is a from-scratch Go reproduction of "Deriving
// Probabilistic Databases with Inference Ensembles" (Stoyanovich, Davidson,
// Milo, Tannen; ICDE 2011).
//
// Given a single relation with missing attribute values, the library learns
// a Meta-Rule Semi-Lattice (MRSL) ensemble from the complete tuples, infers
// a probability distribution over the missing values of every incomplete
// tuple — by ensemble voting for one missing attribute, by ordered Gibbs
// sampling for several — and assembles the results into a
// disjoint-independent probabilistic database that can be queried under
// possible-worlds semantics.
//
// The root package is a facade over the internal packages:
//
//	model, err := repro.Learn(rel, repro.LearnOptions{SupportThreshold: 0.01})
//	d, err := repro.InferSingle(model, tuple, attr, repro.BestAveraged())
//	j, err := repro.InferJoint(model, tuple, repro.GibbsOptions{Samples: 2000})
//	db, err := repro.Derive(model, rel, repro.DeriveOptions{})
//
// Derivation runs on a concurrent, cache-backed streaming engine
// (internal/derive). Derive materializes the whole database on a
// throwaway engine. For anything larger or longer-lived, construct the
// engine once and reuse it: an Engine accepts any number of overlapping
// requests from any number of goroutines, and its evidence-keyed caches
// persist across them, so each distinct damage pattern is inferred once
// for the engine's lifetime. Engine.Derive is its one derivation call: it
// streams certain tuples and completed blocks in input order into a
// Sink, so large derivations can be persisted or served without ever
// being held in memory, and each request can size its worker pool via
// Pools. NewJSONLSink writes NDJSON; an EmitFunc is a sink made of one
// function:
//
//	eng, _ := repro.NewEngine(model, repro.DeriveOptions{
//		Method:  repro.BestAveraged(),
//		Workers: 8, // inference pool: votes, exact solves and chains (0 = GOMAXPROCS)
//	})
//	err := eng.Derive(ctx, rel, repro.Pools{}, repro.NewJSONLSink(w, model.Schema))
//	err = eng.Derive(ctx, rel, repro.Pools{Workers: 2}, repro.EmitFunc(func(it repro.DeriveItem) error {
//		return persist(it) // blocks arrive in input order
//	}))
//	stats := eng.Stats() // cache hit rates, points sampled, streams served
//
// A multi-missing block has two tiers, chosen per tuple by one rule in
// internal/gibbs (gibbs.Infer). A Gibbs chain converges to the stationary
// distribution of its own sweep kernel; when that kernel needs no more
// local CPDs than the chain would draw (Σ_i S/c_i <= (B+N)·k for S
// states over k missing attributes of cardinalities c_i), the engine
// solves it exactly by power iteration instead — no seed, no sampling
// error — and runs the content-seeded chain only for larger kernels or
// ones that do not converge within the chain's B+N sweeps.
// EngineStats.ExactSolved counts the exact solves. InferJoint and the
// Fig 10 and Fig 11 experiments (mrslbench) keep sampling.
//
// Distinct incomplete tuples are inferred once — one pool, started at the
// stream's first tuple whose block is not ready, prefetches the rest in
// first-appearance order, and duplicates are served from the shared,
// synchronized block cache keyed by the tuple's evidence — and the emitted
// stream does not depend on the pool size: every Workers value produces a
// bit-identical database, since votes and exact solves use no randomness
// and chains are seeded by tuple content.
// Relations must carry the model's schema; a mismatch fails up front
// with *SchemaMismatchError, and ReadCSVInSchema parses serving-time
// inputs against a model schema without re-inferring domains, on one
// CSV scanner that accepts exactly what encoding/csv accepts.
//
// # Performance architecture
//
// Inference matches meta-rules lattice-natively: bodies are compiled into
// attribute bitmasks at model build time and matching traverses the
// subsumption Hasse diagram top-down, visiting exactly the matching
// rules instead of enumerating the 2^k sub-assignments of a tuple's
// evidence. An exact solve matches each kernel table once, as a family:
// one traversal with the tuple's known values fixed and its other missing
// attributes as wildcards answers every context of the table, and each
// context's voters are combined in the same order as a lone vote's, so
// the CPDs are bit-identical. The most specific voters are the matches no
// other match lists as a cover. The match path and all cache-hit paths
// are allocation-free in steady state.
//
// Caching is a three-level hierarchy, shared and bounded. Each engine
// owns one sharded local-CPD cache, shared by every exact solve, Gibbs
// chain and bound envelope and by the single-missing vote path, plus one
// single-flight block cache (a completion block per distinct incomplete
// tuple, single- or multi-missing) keyed by canonical evidence.
// DeriveOptions.CacheEntries caps both with CLOCK eviction for
// fixed-memory serving; EngineStats reports hits, misses, and evictions.
// Live datasets' conditioned posteriors are not cached: each dataset owns
// one block per observed tuple.
// Every cached value is a pure function of the model and its key, so
// sharing and eviction never change results — the derived stream stays
// bit-identical for any worker count, cache bound, and request
// interleaving.
//
// # Querying
//
// The derived database exists to be queried, and queries rarely need all
// of it. The engine-native query subsystem (internal/query, surfaced as
// CompileQuery and Engine.Query) evaluates conjunctive predicates —
// equality and domain-order comparisons, several per attribute — under
// four operators: count (expected satisfying count, or the number of
// tuples reaching a probability threshold), exists (probability that at
// least one tuple satisfies, under block independence), topk (the most
// probable satisfying completions, ties bit-stable in input order), and
// groupby (the expected histogram of one attribute, optionally
// filtered):
//
//	q, _ := repro.CompileQuery(model.Schema, repro.QuerySpec{
//		Op: repro.QueryTopK, Where: "age=30,inc>=100K", K: 5,
//	})
//	res, _ := eng.Query(ctx, rel, q, repro.QueryOptions{})
//
// Engine.Query is the one query call: its source is a relation, a live
// dataset's snapshot, or a compiled SPJ statement (below), and
// QueryOptions carry the request's pools, a progress observer for topk
// and groupby, which sees the live result only while the evaluation
// waits on inference, and plan-only. Evaluation runs through a plan/executor pipeline and is extensional
// and exact with pruning: every answer is bit-identical to deriving the
// full database through the same engine and evaluating the stream
// naively, yet selective queries infer only a fraction of the tuples.
//
// # Query planning & bounds
//
// The planner orders predicate evaluation by estimated selectivity
// (satisfying mass under each attribute's evidence-free voted marginal,
// memoized in the shared CPD cache) and classifies every tuple into a
// resolution tier of increasing cost — and, like the executor, honors
// context cancellation while doing so:
// refuted and certain tuples are decided by evidence for free;
// single-missing tuples are decided from their voted block, served by
// the engine's block cache exactly as full derivation would emit it, so
// not even the last bit differs; multi-missing tuples receive a sound
// dissociation-style [lo, hi] interval from the engine's bound engine,
// built from per-attribute conditional-CPD envelopes (min/max
// satisfying mass over every local CPD the tuple's chain could draw
// from, served by the same sharded CLOCK-bounded CPD cache, which
// memoizes the finished interval too) combined with Frechet bounds and
// widened by an explicit concentration-plus-smoothing margin; and only
// tuples whose interval straddles the decision are derived. The
// executor consumes the tiers in cost order: a thresholded count counts
// a tuple in when lo clears MinProb and out when hi stays below; a
// thresholded exists folds the lo sides into a derivation-free lower
// bound that can cross the threshold without sampling anything (and
// still stops at the first certain witness); topk visits candidates in
// decreasing upper-bound order and stops once rank k is held at a
// probability no remaining bound can beat. One-sided decisions imply
// the oracle's comparison, so bit-identity survives — property-tested
// against the derive-everything oracle, including bound soundness
// itself, across worker counts and cache bounds. Expected counts,
// unthresholded exists, and groupby need exact masses and scan fully.
// Every operator reads a tuple's satisfying completions, in block order,
// through one executor call that also owns the deadline fallback: once a
// deadline budget is spent, bound- and derive-tier tuples answer from
// their intervals, while single-missing tuples, which have none, stay
// exact.
//
// QueryResult.Plan carries the compiled plan summary (mrslquery
// -explain prints it), and EngineStats reports the achieved pruning
// (QueryTuples, QueryPruned, QueryBounded, QueryDerived, BoundRefutes,
// and QueryBoundWidth, the summed width of the real intervals).
// cmd/mrslserve exposes the same evaluation over HTTP
// as POST /query (NDJSON: a query record, result records — streamed
// incrementally with partial/final markers for topk and groupby — and a
// summary with the plan and the pruning counters).
//
// # Adaptive execution
//
// The plan is a starting point, not a contract. The executor re-plans
// topk mid-query: it resolves candidates in waves and, before each
// wave, cuts every remaining candidate whose upper bound can no longer
// beat the held rank k (cut candidates are never prefetched, so their
// chains never run). The finished per-tuple intervals bounded plans
// compute are content-keyed and shared across queries through the
// engine's CPD cache (EngineStats.EnvelopeHits/EnvelopeMisses), so a
// repeated footprint costs one probe instead of an envelope
// enumeration. Both mechanisms earned their place in an ablation on
// the query_live benchmark workload; mechanisms that never fired there
// were deleted. All of it is scheduling only: answers are bit-identical
// to the derive-everything oracle, and a plan depends on nothing
// outside its own engine. Re-plan rounds and interval-cache traffic
// surface on the plan's Adaptive block (QueryAdaptiveInfo), in
// mrslquery -explain, the /query summary, the engine block of /stats,
// and /metrics.
//
// # Intensional SPJ queries
//
// Queries also run over joins of several relations. ParseSPJ parses a
// SQL-ish select-project-join statement ("select a,b from R join S on
// k=k where a=v"), SPJStatement.Bind attaches the named input
// relations, and CompileSPJ folds the join chain while tracking
// lineage — which base-tuple events each joined answer row reads. Join
// columns stay in the inputs' own schemas; the remaining attributes
// are recoded into the model's domains and the joined rows aligned to
// the model schema, so the same plan/executor/bounds pipeline
// evaluates the result:
//
//	st, _ := repro.ParseSPJ("from people join finance on pid=pid where age=20")
//	spec, _ := st.Bind(map[string]*repro.Relation{"people": p, "finance": f},
//		repro.QuerySpec{Op: repro.QueryCount}, false)
//	spj, _ := repro.CompileSPJ(model.Schema, spec)
//	res, _ := eng.Query(ctx, spj, spj.Query(), repro.QueryOptions{})
//
// Compilation runs a safety analysis in the spirit of Gatterbauer &
// Suciu's dissociation: extensional evaluation over independent blocks
// is exact precisely when the plan is hierarchical — no
// relevantly-uncertain base tuple is read by two or more surviving
// joined rows. PlanInfo.Join carries the verdict (mrslquery -explain
// prints it). Safe plans answer bit-identically to a
// join-then-derive-everything oracle (property-tested). Unsafe plans
// still answer the linear operators (count, topk, groupby) exactly —
// expectations are linear in tuple probabilities — while exists and
// projected answers that merge shared lineage are flagged
// QueryResult.Dissociated and carry a sound [lo, hi] interval
// (QueryResult.Bounds) guaranteed to contain the true intensional
// mass, so thresholded decisions resolve without sampling whenever the
// interval clears. EngineStats.QueriesDissociated counts the flagged
// answers. The same surface is exposed on cmd/mrslquery (-sql, -rels)
// and on POST /query (sql= with multipart CSV file fields or
// registered join-input datasets; POST /datasets?schema=own registers
// a relation under its own schema for joining — such datasets accept
// no observations and cannot be derived or queried alone).
//
// Engine.Derive and Engine.Query take a context: cancellation stops
// scheduling and waiting immediately, while work already claimed is
// completed into the caches, never abandoned half-done — so a
// disconnected HTTP client cancels its in-flight derivation without
// poisoning anything shared.
//
// # Live evidence
//
// The database need not stay immutable per request. A relation
// registered as a Dataset accepts evidence deltas — "tuple 7's income
// is 50K" — as exact Bayesian conditioning: the tuple's block is
// filtered to the consistent alternatives and renormalized, and every
// later snapshot, derivation, or query over the dataset sees the
// posterior instead of the prior:
//
//	ds, _ := eng.RegisterDataset(rel)
//	res, _ := ds.Observe(ctx, 7, incAttr, fiftyK) // res.Collapsed, res.Epoch
//	snap, _ := ds.Snapshot(ctx)
//	ans, _ := eng.Query(ctx, snap, q, repro.QueryOptions{})
//	err := eng.Derive(ctx, snap, repro.Pools{}, sink)
//
// Coherence is exact, not TTL-approximate. The engine's block and CPD
// caches are keyed by tuple content — pure functions of the model that
// no observation can make stale — so they need no invalidation at all.
// The one per-dataset artifact, a tuple's conditioned posterior block,
// belongs to the dataset: one block per observed tuple, which Observe
// conditions and replaces (the derived database is disjoint-independent,
// so conditioning one block touches no other). Snapshot copies the
// posteriors under the dataset's lock: it runs no inference and never
// sees a superseded posterior. The query planner classifies conditioned
// tuples into an "observed" tier whose satisfying mass is exact and
// free. After any sequence of deltas, answers are bit-identical to a
// fresh engine evaluating the conditioned database naively — the
// property the live-evidence tests re-check after every delta, on
// unbounded engines and on engines whose caches hold one entry.
// Dataset.Subscribe delivers a coalesced signal per applied observation
// (the primitive behind mrslserve's watch queries), and EngineStats adds
// Observations, InvalidatedEntries (posteriors a later observation
// superseded), Watchers, and Datasets. Over HTTP: POST /datasets registers, POST /observe
// mutates, dataset=<id> selects the conditioned snapshot on /derive
// and /query, and watch=1 subscribes.
//
// # Operations & failure modes
//
// Serving fails soft. A deadline on the request context (or, over HTTP,
// mrslserve's -default-timeout / timeout_ms=) is a degradation budget,
// not a failure line: a query whose budget runs out answers the
// still-unresolved tuples from the planner's sound dissociation
// intervals instead of sampling them — QueryResult.Degraded is set, the
// [lo, hi] in QueryResult.Bounds is guaranteed to contain the exact
// answer, and the point answer is the bracket's lower side — while a
// derive stream ends with a truncated marker after only exact lines.
// Non-degraded answers stay bit-identical to the unbudgeted run.
// EngineStats counts Degraded and DeadlineMisses.
//
// Failures are isolated per request. A panic in any engine worker pool
// (voting, Gibbs chains, prefetch) is recovered at the goroutine
// boundary and returned as a typed *PanicError carrying the operation,
// panic value, and stack; the poisoned cache slot is invalidated rather
// than memoized, so the engine stays serviceable and the next identical
// request reproduces the fault-free answer bit for bit
// (EngineStats.PanicsRecovered). mrslserve adds HTTP-level recovery
// (500 before the first byte, a terminal error record mid-stream),
// admission control (-max-inflight: 429 + Retry-After), sustained-miss
// shedding with a half-open probe (-shed-after-misses: 503 until a
// probe request completes cleanly), and graceful drain on
// SIGTERM/SIGINT (healthz flips to draining, watch subscribers get a
// terminal end record, in-flight requests finish within
// -drain-timeout).
//
// internal/faultinject is the env-gated switchboard behind the chaos
// harness: MRSL_FAULTS='derive.vote=panic/3,gibbs.sweep=sleep:300us/7'
// arms named fault points in the hot paths with panics, sleeps, or
// cache eviction storms. "make chaos-smoke" (part of "make ci") soaks a
// live engine under concurrent derive/query/observe traffic with every
// point armed, under the race detector, asserting the process survives,
// non-degraded answers stay bit-identical to a fault-free oracle, and
// degraded intervals contain the oracle mass.
//
// # Observability
//
// The stack is instrumented end to end, and observation never changes
// answers. A process-wide registry (surfaced as WriteMetrics) holds
// lock-free fixed-bucket log-scale latency histograms on atomics — one
// atomic add per observation, zero allocations, pinned by benchmark —
// recording vote resolutions, Gibbs chains, bound computations,
// prefetch waits, derivation streams, watch fan-out, and query
// plan/exec times at block/stage granularity, never per tuple.
// WriteEngineStatsMetrics renders an EngineStats snapshot as one
// Prometheus gauge per counter (mrsl_engine_ + snake_case(field);
// EngineStatsMetricNames lists them, and "make metrics-lint" keeps the
// exposition and README's metric table in lockstep).
//
// Per-request timing is opt-in: QuerySpec.Analyze (mrslquery
// -explain-analyze, or explain=analyze on POST /query) attaches
// measured planning, wall, and per-tier resolution durations to
// QueryResult.Plan.Timing — the predicted tier counts next to what they
// actually cost. A Trace attached to the evaluation context (NewTrace,
// WithTrace) records named spans through the same probes and also
// enables the timing block; a nil *Trace is a valid no-op recorder, so
// instrumented code observes unconditionally and pays only a nil check
// when tracing is off. Neither path changes answers — evaluations with
// timing or tracing enabled return bit-identical results
// (property-tested). mrslserve exposes the registry on GET /metrics
// (plus a build-info gauge carrying the binary's VCS revision), honors
// or generates X-Request-ID, logs one structured slog line per request,
// streams {"kind":"trace"} records under trace=1, and mounts
// net/http/pprof on a separate listener with -pprof.
//
// The cmd/ directory ships six tools (mrslserve serves streaming
// derivations and queries over HTTP from one long-lived engine;
// mrslbench regenerates every table and figure of the paper plus engine
// ablations; mrslquery answers count/exists/topk/groupby queries over
// incomplete CSV data through the engine's pruning evaluator; mrsllearn,
// mrslinfer, and bngen operate on CSV data), and examples/ contains
// runnable walkthroughs, starting with the paper's own matchmaking
// relation in examples/quickstart.
package repro
