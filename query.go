package repro

import (
	"context"

	"repro/internal/derive"
	"repro/internal/query"
)

// This file exposes the engine-native probabilistic query subsystem
// (internal/query) through the root package: compiled conjunctive
// queries over a model's schema, evaluated extensionally on top of an
// Engine's shared caches with bound-based pruning and early termination.
// Answers are bit-identical to deriving the full probabilistic database
// through the same engine and evaluating naively, yet selective queries
// derive only a fraction of the tuples; see EngineStats' Query* counters
// for the achieved pruning.

// Query types re-exported from the query package.
type (
	// QueryOp is a query operator: QueryCount, QueryExists, QueryTopK, or
	// QueryGroupBy.
	QueryOp = query.Op
	// QueryCmp is a predicate comparison (QueryEq, QueryNe, QueryLt,
	// QueryLe, QueryGt, QueryGe). Ordered comparisons compare domain
	// positions, which is meaningful for domains listed in semantic order
	// (discretized numeric buckets are).
	QueryCmp = query.Cmp
	// QueryPred is one predicate: Attr Cmp Value, Value a domain code.
	QueryPred = query.Pred
	// QuerySpec is the uncompiled form of a query, as CLI flags and HTTP
	// parameters express it.
	QuerySpec = query.Spec
	// CompiledQuery is a validated, compiled query over one schema.
	CompiledQuery = query.Query
	// QueryResult is the answer of one evaluation, including the pruning
	// counters achieved.
	QueryResult = query.Result
	// QueryRow is one TopK result row.
	QueryRow = query.Row
	// QueryGroup is one GroupBy histogram bucket.
	QueryGroup = query.Group
	// QueryCounters partition one evaluation's scanned tuples by the
	// inference each cost.
	QueryCounters = query.Counters
	// QueryPlanInfo summarizes the compiled plan an evaluation executed:
	// selectivity-ordered predicates, per-tier tuple counts, and whether
	// dissociation bounds were in play. Attached to QueryResult.Plan.
	QueryPlanInfo = query.PlanInfo
	// QueryPlanTiming is the explain-analyze block on QueryPlanInfo.Timing:
	// measured planning, wall, and per-tier resolution durations for one
	// evaluation. Attached only when QuerySpec.Analyze was set (or the
	// evaluation context carried a Trace); timing never changes answers.
	QueryPlanTiming = query.PlanTiming
	// QueryTierTiming is one measured tier of a QueryPlanTiming: how many
	// tuples resolved through it and the total duration they took.
	QueryTierTiming = query.TierTiming
	// QueryAdaptiveInfo is the adaptive-execution block on
	// QueryPlanInfo.Adaptive: shared envelope-cache traffic and the
	// executor's re-plan rounds. Nil when the evaluation neither used
	// bounds nor carried a deadline.
	QueryAdaptiveInfo = query.AdaptiveInfo
	// QueryProgressFunc observes a TopK or GroupBy evaluation in flight;
	// see Engine.QueryStream.
	QueryProgressFunc = query.ProgressFunc
	// BoundInterval is a sound [Lo, Hi] probability interval from the
	// engine's dissociation bound engine.
	BoundInterval = derive.Interval
)

// Query operators.
const (
	QueryCount   = query.Count
	QueryExists  = query.Exists
	QueryTopK    = query.TopK
	QueryGroupBy = query.GroupBy
)

// Predicate comparisons.
const (
	QueryEq = query.Eq
	QueryNe = query.Ne
	QueryLt = query.Lt
	QueryLe = query.Le
	QueryGt = query.Gt
	QueryGe = query.Ge
)

// ParseQueryOp converts a wire name ("count", "exists", "topk",
// "groupby") into a QueryOp.
func ParseQueryOp(s string) (QueryOp, error) { return query.ParseOp(s) }

// ParseQueryWhere parses the textual conjunction syntax shared by the
// mrslquery CLI and the mrslserve /query endpoint — comma-separated
// conditions "attr=value", "attr!=value", "attr<value", "attr<=value",
// "attr>value", "attr>=value" — against the schema.
func ParseQueryWhere(s *Schema, where string) ([]QueryPred, error) {
	return query.ParseWhere(s, where)
}

// CompileQuery validates spec against the schema (normally a model's) and
// compiles it for evaluation. Count, Exists, and TopK require at least
// one predicate; GroupBy requires a group attribute and accepts zero
// predicates (the unfiltered histogram).
func CompileQuery(s *Schema, spec QuerySpec) (*CompiledQuery, error) {
	return query.Compile(s, spec)
}

// Query evaluates a compiled query over rel through the plan/executor
// pipeline on the engine's shared caches: the planner orders predicate
// evaluation by estimated selectivity and classifies every tuple into a
// resolution tier (attaching sound dissociation bound intervals to
// multi-missing tuples — see Engine.BoundCPD), and the executor consumes
// the tiers in increasing cost order — tuples decided by evidence cost
// nothing, single-missing tuples are decided from the shared local-CPD
// cache without expanding a block, multi-missing tuples whose interval
// clears or refutes the threshold (or cannot reach TopK's rank k) are
// decided without sampling, and only the remainder is scheduled for full
// derivation. On a chains-mode engine (DeriveOptions.Workers > 1) the
// answer is bit-identical to deriving rel completely through this engine
// and evaluating the stream naively, for every worker count; with the
// tuple-DAG sampler (Workers <= 1) multi-missing estimates are
// workload-dependent by construction — the same caveat derivation itself
// carries — so query-time single-tuple estimates can differ from a full
// derivation's (and bounds stay disabled). The compiled plan summary is
// attached to QueryResult.Plan. Canceling ctx aborts the evaluation.
func (e *Engine) Query(ctx context.Context, rel *Relation, q *CompiledQuery) (*QueryResult, error) {
	return query.Eval(ctx, e.eng, rel, q)
}

// QueryPools is Query with per-request worker pool sizes for the
// prefetched derivation worklist (sizes affect scheduling only, never
// the answer).
func (e *Engine) QueryPools(ctx context.Context, rel *Relation, q *CompiledQuery, pools Pools) (*QueryResult, error) {
	return query.EvalPools(ctx, e.eng, rel, q, pools)
}

// QueryStream is QueryPools with a progress observer: for TopK and
// GroupBy evaluations, progress is called after each resolved uncertain
// tuple with the live, partially filled result, so serving paths can
// stream partial rows and group histograms as blocks resolve. Read the
// result synchronously inside the callback and do not retain it; a
// progress error aborts the evaluation. Other operators fold scalars and
// report nothing incremental.
func (e *Engine) QueryStream(ctx context.Context, rel *Relation, q *CompiledQuery, pools Pools, progress QueryProgressFunc) (*QueryResult, error) {
	return query.EvalPoolsProgress(ctx, e.eng, rel, q, pools, progress)
}

// PlanQuery compiles the evaluation plan of q over rel on this engine
// without executing it: the selectivity-ordered predicates, the
// per-tier tuple counts, and (for bound-capable operators) the
// dissociation intervals' tier assignment. Planning can pay for
// envelope votes on a cold cache, so it honors ctx like Query does.
// Useful for explain tooling and planner benchmarks; Engine.Query runs
// the same planner internally and attaches the summary to
// QueryResult.Plan.
func (e *Engine) PlanQuery(ctx context.Context, rel *Relation, q *CompiledQuery) (*QueryPlanInfo, error) {
	return query.Plan(ctx, e.eng, rel, q)
}

// Intensional SPJ types re-exported from the query package.
type (
	// QuerySPJInput is one named input relation of a multi-relation query.
	QuerySPJInput = query.SPJInput
	// QuerySPJJoin is one PK-FK equi-join condition in an SPJ chain.
	QuerySPJJoin = query.SPJJoin
	// QuerySPJSpec is the uncompiled multi-relation query: the
	// single-relation QuerySpec plus inputs, join chain, and optional
	// projection (distinct-answer mode, count/topk only).
	QuerySPJSpec = query.SPJSpec
	// CompiledSPJ is a compiled SPJ query: the joined, model-aligned
	// relation with per-row lineage, the compiled query over it, and the
	// safety verdict.
	CompiledSPJ = query.SPJ
	// SPJStatement is a parsed SQL-ish statement (see ParseSPJ); Bind
	// resolves its relation names against concrete inputs.
	SPJStatement = query.SPJText
	// QueryJoinPlanInfo is the join/safety section of a plan summary:
	// join order, conditions, projection, and the safety verdict.
	QueryJoinPlanInfo = query.JoinPlanInfo
)

// ParseSPJ parses the SQL-ish statement surface of intensional queries:
//
//	[select <cols>|*] from <rel> [join <rel> on <left>=<right>]... [where <conds>]
//
// Keywords are case-insensitive; the where tail uses the ParseQueryWhere
// conjunction syntax. The operator and its parameters stay outside the
// statement (CLI flags, HTTP parameters). Bind the result to concrete
// input relations with SPJStatement.Bind, then compile with CompileSPJ.
func ParseSPJ(s string) (*SPJStatement, error) { return query.ParseSPJ(s) }

// CompileSPJ validates and compiles a multi-relation query against the
// model schema: inputs are cloned and re-encoded into model domains, the
// PK-FK join chain is folded with per-row lineage, the joined relation is
// aligned to the model schema, and the safety analyzer classifies the
// plan. Safe (hierarchical) plans evaluate extensionally with exact
// answers; unsafe plans stay exact for linear operators and surface
// dissociation bounds for exists (see Engine.QuerySPJ).
func CompileSPJ(s *Schema, spec QuerySPJSpec) (*CompiledSPJ, error) {
	return query.CompileSPJ(s, spec)
}

// QuerySPJ evaluates a compiled SPJ query on this engine. Safe plans and
// linear operators (count, topk, groupby) answer bit-identically to
// joining the inputs and deriving every tuple through this engine. For
// unsafe exists plans the answer is the dissociated existence mass — a
// sound upper bound on the intensional probability — flagged on
// QueryResult.Dissociated with a sound [lo, hi] interval on
// QueryResult.Bounds; a thresholded exists whose interval clears or
// refutes the threshold is decided without any derivation. Projected
// (distinct-answer) queries return one row per distinct projected value.
func (e *Engine) QuerySPJ(ctx context.Context, spj *CompiledSPJ) (*QueryResult, error) {
	return query.EvalSPJ(ctx, e.eng, spj, derive.Pools{}, nil)
}

// QuerySPJStream is QuerySPJ with per-request pools and a progress
// observer (unprojected TopK/GroupBy only, like Engine.QueryStream).
func (e *Engine) QuerySPJStream(ctx context.Context, spj *CompiledSPJ, pools Pools, progress QueryProgressFunc) (*QueryResult, error) {
	return query.EvalSPJ(ctx, e.eng, spj, pools, progress)
}

// PlanSPJ compiles the evaluation plan of an SPJ query without executing
// it: the single-relation plan over the joined relation plus the join
// order, conditions, projection, and safety verdict — the -explain
// primitive for SQL statements.
func (e *Engine) PlanSPJ(ctx context.Context, spj *CompiledSPJ) (*QueryPlanInfo, error) {
	return query.PlanSPJ(ctx, e.eng, spj)
}

// BoundCPD computes a sound dissociation-style probability interval for
// a multi-missing tuple: the probability that every missing attribute
// completes into its satisfying set (sat[a] per value code, nil =
// unconstrained) is bracketed by [Lo, Hi] relative to the very block
// this engine's derivation would produce. Built from per-attribute
// conditional-CPD envelopes memoized in the engine's shared CPD cache;
// degrades to the vacuous [0, 1] on DAG-mode or alternative-capped
// engines. This is the primitive behind the query planner's
// multi-missing pruning.
func (e *Engine) BoundCPD(t Tuple, sat [][]bool) (BoundInterval, error) {
	return e.eng.BoundCPD(t, sat)
}
