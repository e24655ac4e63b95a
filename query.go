package repro

import (
	"context"

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
	// bounds nor carried a deadline, and for a projected SPJ.
	QueryAdaptiveInfo = query.AdaptiveInfo
	// QueryProgressFunc observes a TopK or GroupBy evaluation while it
	// waits on inference; see QueryOptions.Progress.
	QueryProgressFunc = query.ProgressFunc
	// QueryOptions are the per-request settings of one Engine.Query: the
	// worker pools, the progress observer, and plan-only.
	QueryOptions = query.Options
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

// CompileQuery validates spec against the schema (normally a model's) and
// compiles it for evaluation. Count, Exists, and TopK require at least
// one predicate; GroupBy requires a group attribute and accepts zero
// predicates (the unfiltered histogram).
func CompileQuery(s *Schema, spec QuerySpec) (*CompiledQuery, error) {
	return query.Compile(s, spec)
}

// Query evaluates the compiled query q over src — a *Relation, a
// *DatasetSnapshot, or a *CompiledSPJ whose own query q is — through
// the plan/executor pipeline on the engine's shared caches: the planner
// orders predicate evaluation by estimated selectivity and classifies
// every tuple into a resolution tier (attaching sound dissociation bound
// intervals to multi-missing tuples), and the executor consumes the
// tiers in increasing cost order — tuples decided by evidence cost
// nothing, single-missing tuples read their voted block from the
// engine's one block cache (the derivation engine's ResolveBlock, as a
// stream would) and never need an interval or a chain, multi-missing
// tuples whose interval clears or refutes the threshold (or cannot reach
// TopK's rank k) are decided without sampling, and only the remainder is
// scheduled for full derivation.
//
// Over a relation the answer is bit-identical to deriving it completely
// through this engine and evaluating the stream naively, for every
// worker count. Over a snapshot, observed tuples are decided from their
// conditioned posterior blocks — exactly and for free, never from the
// prior-evidence vote or bound estimators — and the answer is
// bit-identical to deriving the conditioned database naively; the number
// of tuples decided this way is QueryResult.Plan.Observed. Over an SPJ,
// safe plans and linear operators (count, topk, groupby) answer
// bit-identically to joining the inputs and deriving every tuple through
// this engine; for unsafe exists plans the answer is the dissociated
// existence mass — a sound upper bound on the intensional probability —
// flagged on QueryResult.Dissociated with a sound [lo, hi] interval on
// QueryResult.Bounds, and projected (distinct-answer) queries return one
// row per distinct projected value.
//
// opts.Pools sizes the prefetch pools (scheduling only, never the
// answer). opts.Progress, for TopK and GroupBy, is called with the live,
// partially filled result only while the evaluation waits on inference —
// when a prefetch starts its pool at a worklist's first uncached block,
// or just before a block it must compute or wait on, when the result
// changed since the last call — so serving paths can stream partial rows
// and group histograms while the engine works, and a query served from
// the caches never reports; read the result synchronously inside the
// callback and do not retain it, and a progress error aborts the
// evaluation. opts.PlanOnly
// returns the compiled plan without executing it. The plan summary is
// attached to QueryResult.Plan. Canceling ctx aborts the evaluation.
func (e *Engine) Query(ctx context.Context, src Source, q *CompiledQuery, opts QueryOptions) (*QueryResult, error) {
	return query.Eval(ctx, e.eng, src, q, opts)
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
// Keywords are case-insensitive; the where tail is a comma-separated
// conjunction of conditions "attr=value", "attr!=value", "attr<value",
// "attr<=value", "attr>value" or "attr>=value". The operator and its parameters stay outside the
// statement (CLI flags, HTTP parameters). Bind the result to concrete
// input relations with SPJStatement.Bind, then compile with CompileSPJ.
func ParseSPJ(s string) (*SPJStatement, error) { return query.ParseSPJ(s) }

// CompileSPJ validates and compiles a multi-relation query against the
// model schema: inputs are cloned and re-encoded into model domains, the
// PK-FK join chain is folded with per-row lineage, the joined relation is
// aligned to the model schema, and the safety analyzer classifies the
// plan. Safe (hierarchical) plans evaluate extensionally with exact
// answers; unsafe plans stay exact for linear operators and surface
// dissociation bounds for exists (see Engine.Query).
func CompileSPJ(s *Schema, spec QuerySPJSpec) (*CompiledSPJ, error) {
	return query.CompileSPJ(s, spec)
}
