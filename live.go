package repro

import (
	"context"

	"repro/internal/derive"
)

// This file exposes live evidence through the root package: registered
// datasets that turn a batch Engine into a living probabilistic
// database. A relation is registered once, observations arrive as
// deltas ("tuple 7's income is 50K"), and every later derivation or
// query over the dataset sees Bayesian-conditioned posterior blocks
// instead of the priors. Coherence is exact: the engine's
// content-keyed caches are never stale by construction, and the one
// per-dataset artifact, the conditioned posterior of an observed tuple,
// belongs to the dataset: one block per observed tuple, replaced by each
// observation of that tuple and copied by each snapshot, so a snapshot
// runs no inference and never sees a superseded posterior. See
// EngineStats.Observations, EngineStats.InvalidatedEntries (posteriors
// superseded by a later observation), and EngineStats.Watchers for the
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
// closed Done channel and later observes fail. The dataset's posteriors
// stay with its handle, so a dropped dataset still snapshots its last
// state. Reports whether the id was registered.
func (e *Engine) DropDataset(id string) bool { return e.eng.DropDataset(id) }

// DeriveSnapshot is Derive of a dataset snapshot.
func (e *Engine) DeriveSnapshot(ctx context.Context, snap *DatasetSnapshot, pools Pools, sink Sink) error {
	return e.Derive(ctx, snap, pools, sink)
}

// QuerySnapshot is Query of a dataset snapshot with the given pools and
// progress observer (nil for none), which sees the live result only while
// the evaluation waits on inference.
func (e *Engine) QuerySnapshot(ctx context.Context, snap *DatasetSnapshot, q *CompiledQuery, pools Pools, progress QueryProgressFunc) (*QueryResult, error) {
	return e.Query(ctx, snap, q, QueryOptions{Pools: pools, Progress: progress})
}
