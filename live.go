package repro

import (
	"context"

	"repro/internal/derive"
	"repro/internal/query"
)

// This file exposes live evidence through the root package: registered
// datasets that turn a batch Engine into a living probabilistic
// database. A relation is registered once, observations arrive as
// deltas ("tuple 7's income is 50K"), and every later derivation or
// query over the dataset sees Bayesian-conditioned posterior blocks
// instead of the priors. Coherence is exact: the engine's
// content-keyed caches are never stale by construction, and the one
// per-dataset artifact — the conditioned posterior of an observed
// tuple — is invalidated exactly (only the touched tuple's entry) and
// epoch-tagged, so a stale posterior is never served even under
// races or eviction. See EngineStats.Observations,
// EngineStats.InvalidatedEntries, and EngineStats.Watchers for the
// live-evidence counters.

// Live-evidence types re-exported from the derive package.
type (
	// Dataset is a registered relation with live evidence, created with
	// Engine.RegisterDataset. Safe for concurrent use: observes,
	// snapshots, and subscriptions may run from any goroutine.
	Dataset = derive.Dataset
	// DatasetSnapshot is a consistent, immutable view of a dataset for
	// evaluation: the effective relation plus the conditioned posterior
	// blocks of every observed tuple.
	DatasetSnapshot = derive.DatasetSnapshot
	// ObserveResult reports one applied observation delta.
	ObserveResult = derive.ObserveResult
	// Observation is one applied evidence delta: attribute Attr was seen
	// to be value Val (a domain code).
	Observation = derive.Obs
)

// RegisterDataset registers rel as a live dataset on this engine and
// returns its handle, whose ID addresses it in Engine.Dataset and over
// the mrslserve HTTP API. The relation must match the model's schema
// and is retained by reference; the caller must not mutate it
// afterwards. Datasets hold no inference state up front — observing,
// snapshotting, and evaluating lazily resolve blocks through the
// engine's shared caches.
func (e *Engine) RegisterDataset(rel *Relation) (*Dataset, error) {
	return e.eng.RegisterDataset(rel)
}

// RegisterJoinInput registers rel as a join-input dataset: the relation
// keeps its own schema (typically a fragment of the model's attributes
// plus join-key columns the model does not know), so it can be bound as
// a named input of an intensional SPJ query — over HTTP, a registered
// join input stands in for a multipart CSV upload. Join-input datasets
// accept no evidence and cannot be derived or queried on their own;
// Dataset.JoinInput reports the flavor.
func (e *Engine) RegisterJoinInput(rel *Relation) (*Dataset, error) {
	return e.eng.RegisterJoinInput(rel)
}

// Dataset returns the registered dataset with the given id.
func (e *Engine) Dataset(id string) (*Dataset, bool) { return e.eng.Dataset(id) }

// DropDataset unregisters a dataset: watchers wake and observe the
// closed Done channel, later observes fail, and the dataset's
// conditioned blocks are invalidated out of the engine cache. Reports
// whether the id was registered.
func (e *Engine) DropDataset(id string) bool { return e.eng.DropDataset(id) }

// DeriveSnapshot derives the probabilistic database of a dataset
// snapshot and streams it to the sink in input order: observed tuples
// emit their conditioned posterior blocks (or pass through as certain
// tuples after a collapse), and unobserved tuples resolve through the
// engine's shared caches bit-identically to a batch derivation of the
// same relation. Canceling ctx stops the stream and, like
// DeriveToContext, leaves the sink unclosed.
func (e *Engine) DeriveSnapshot(ctx context.Context, snap *DatasetSnapshot, pools Pools, sink Sink) error {
	return e.eng.StreamSnapshotTo(ctx, snap, pools, sink)
}

// DeriveSnapshotStream is DeriveSnapshot with a raw emit callback
// instead of a Sink.
func (e *Engine) DeriveSnapshotStream(ctx context.Context, snap *DatasetSnapshot, pools Pools, emit func(DeriveItem) error) error {
	return e.eng.StreamSnapshot(ctx, snap, pools, derive.EmitFunc(emit))
}

// QuerySnapshot evaluates a compiled query over a dataset snapshot
// through the plan/executor pipeline, like Engine.QueryStream over a
// plain relation, except that observed tuples are decided from their
// conditioned posterior blocks — exactly and for free, never from the
// prior-evidence vote or bound estimators. Answers are bit-identical
// to deriving the conditioned database naively; the number of tuples
// the plan decided this way is QueryResult.Plan.Observed. progress may
// be nil.
func (e *Engine) QuerySnapshot(ctx context.Context, snap *DatasetSnapshot, q *CompiledQuery, pools Pools, progress QueryProgressFunc) (*QueryResult, error) {
	return query.EvalSnapshot(ctx, e.eng, snap, q, pools, progress)
}

// PlanSnapshot compiles the evaluation plan of q over a dataset
// snapshot without executing it, classifying conditioned tuples into
// the observed tier. The explain primitive for live datasets.
func (e *Engine) PlanSnapshot(ctx context.Context, snap *DatasetSnapshot, q *CompiledQuery) (*QueryPlanInfo, error) {
	return query.PlanSnapshot(ctx, e.eng, snap, q)
}
