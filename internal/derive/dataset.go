package derive

import (
	"context"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"time"

	"repro/internal/pdb"
	"repro/internal/relation"
)

// Live evidence. A registered Dataset turns the engine from a batch
// deriver into a living probabilistic database: the source relation is
// registered once, observations ("tuple 7's income is 50K") arrive as
// deltas, and every later derivation or query over the dataset sees the
// Bayesian-conditioned posterior blocks instead of the priors.
//
// Coherence is exact by ownership:
//
//   - The engine's block, CPD and bound caches are keyed by tuple
//     CONTENT (the canonical evidence key), so their entries are pure
//     functions of the model — an observation never makes them stale.
//     Conditioning changes which block a tuple reads, not what any key
//     means, so those caches need no invalidation at all; the planner's
//     BoundCPD intervals likewise can never be reused stale, because an
//     observed tuple routes through its conditioned block (no bound
//     computed).
//   - The one per-dataset artifact, the conditioned posterior of each
//     observed tuple, belongs to the dataset: one block per observed
//     tuple, in a map under the dataset's lock. The derived database is
//     disjoint-independent, so conditioning a block on an observed value
//     is a Bayesian update inside that block: a posterior depends only on
//     its tuple's prior block and its own observations. Observe
//     conditions the stored posterior (on a first observation, the block
//     ResolveBlock serves) and replaces it; Snapshot copies the map, so
//     it runs no inference and can never read a superseded posterior.

// Dataset is a registered relation with live evidence. Create with
// Engine.RegisterDataset; safe for concurrent use.
type Dataset struct {
	id        string
	eng       *Engine
	rel       *relation.Relation
	joinInput bool // registered under its own schema; SPJ input only

	mu        sync.Mutex
	posterior map[int]*pdb.Block // conditioned block per observed source tuple index
	version   uint64             // total observations applied
	subs      map[int]chan struct{}
	subSeq    int
	closed    bool
	done      chan struct{}
}

// ObserveResult reports one applied observation.
type ObserveResult struct {
	// Index, Attr, Val echo the observation.
	Index, Attr, Val int
	// Noop is true when the value was already known (from the source
	// tuple or an earlier observation) and nothing changed.
	Noop bool
	// Collapsed is true when the observation determined the tuple's last
	// missing value: the block is now a certain tuple.
	Collapsed bool
	// Alternatives is the number of completions remaining in the
	// conditioned block (1 when Collapsed).
	Alternatives int
	// Epoch is the tuple's observation count after this delta (its missing
	// values in the source less those left in its posterior); Version is
	// the dataset's.
	Epoch, Version uint64
}

// DatasetSnapshot is a consistent view of a dataset for evaluation: the
// effective relation (observed values folded into the tuples) plus the
// conditioned completion blocks of every tuple that has received
// observations. Snapshots are immutable; concurrent observes produce
// later versions, never mutate an issued snapshot.
type DatasetSnapshot struct {
	// Rel holds the effective tuples: an observed tuple's entry is its
	// conditioned block's base (observed values known, the rest still
	// missing, possibly complete after a collapse).
	Rel *relation.Relation
	// Overrides maps source tuple index -> conditioned block for every
	// tuple with at least one observation. Evaluators must use the
	// override (a Bayesian posterior) rather than re-inferring the
	// effective tuple, which would be a different estimator.
	Overrides map[int]*pdb.Block
	// Version is the dataset version the snapshot reflects.
	Version uint64
}

// SourceRelation returns the effective relation, nil for a nil snapshot.
// It makes a snapshot a Source: a stream over it emits each observed
// tuple's conditioned block instead of inferring the tuple.
func (s *DatasetSnapshot) SourceRelation() *relation.Relation {
	if s == nil {
		return nil
	}
	return s.Rel
}

// RegisterDataset registers rel as a live dataset and returns its
// handle. The relation must match the model's schema and is retained by
// reference; the caller must not mutate it afterwards.
func (e *Engine) RegisterDataset(rel *relation.Relation) (*Dataset, error) {
	if rel == nil {
		return nil, fmt.Errorf("derive: nil relation")
	}
	if d := e.model.Schema.Diff(rel.Schema); d != "" {
		return nil, &SchemaMismatchError{Model: e.model.Schema, Data: rel.Schema, Diff: d}
	}
	return e.register(rel, false), nil
}

// RegisterJoinInput registers rel as a join-input dataset: its schema is
// kept as-is instead of being validated against the model, so it may
// carry key columns the model does not know. Join-input datasets exist
// to be bound as input relations of intensional SPJ queries; they accept
// no evidence (conditioning is defined over the model's schema) and
// cannot be derived or queried on their own.
func (e *Engine) RegisterJoinInput(rel *relation.Relation) (*Dataset, error) {
	if rel == nil {
		return nil, fmt.Errorf("derive: nil relation")
	}
	return e.register(rel, true), nil
}

func (e *Engine) register(rel *relation.Relation, joinInput bool) *Dataset {
	e.dsMu.Lock()
	defer e.dsMu.Unlock()
	e.dsSeq++
	ds := &Dataset{
		id:        "ds" + strconv.Itoa(e.dsSeq),
		eng:       e,
		rel:       rel,
		joinInput: joinInput,
		posterior: make(map[int]*pdb.Block),
		subs:      make(map[int]chan struct{}),
		done:      make(chan struct{}),
	}
	e.datasets[ds.id] = ds
	return ds
}

// Dataset returns the registered dataset with the given id.
func (e *Engine) Dataset(id string) (*Dataset, bool) {
	e.dsMu.Lock()
	defer e.dsMu.Unlock()
	ds, ok := e.datasets[id]
	return ds, ok
}

// DropDataset unregisters a dataset and wakes its watchers (whose
// subscriptions report closure). The posteriors stay with the handle, so
// a dropped dataset still snapshots its last state. Reports whether the
// id was registered.
func (e *Engine) DropDataset(id string) bool {
	e.dsMu.Lock()
	ds, ok := e.datasets[id]
	delete(e.datasets, id)
	e.dsMu.Unlock()
	if !ok {
		return false
	}
	ds.mu.Lock()
	ds.closed = true
	close(ds.done)
	ds.mu.Unlock()
	return true
}

// ID returns the dataset's registry handle.
func (d *Dataset) ID() string { return d.id }

// Relation returns the source relation (the priors, without evidence).
// Shared; callers must not mutate it.
func (d *Dataset) Relation() *relation.Relation { return d.rel }

// JoinInput reports whether the dataset was registered under its own
// schema (Engine.RegisterJoinInput) and so serves only as an SPJ query
// input.
func (d *Dataset) JoinInput() bool { return d.joinInput }

// Version returns the number of observations applied so far.
func (d *Dataset) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// Done returns a channel closed when the dataset is dropped.
func (d *Dataset) Done() <-chan struct{} { return d.done }

// Subscribe registers a watcher: the returned channel receives a
// (coalesced) signal after every applied observation. The caller must
// invoke cancel when done; the engine's Watchers gauge tracks active
// subscriptions. A dropped dataset closes Done instead of signaling.
func (d *Dataset) Subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	d.mu.Lock()
	d.subSeq++
	id := d.subSeq
	d.subs[id] = ch
	d.mu.Unlock()
	d.eng.addWatchers(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			d.mu.Lock()
			delete(d.subs, id)
			d.mu.Unlock()
			d.eng.addWatchers(-1)
		})
	}
	return ch, cancel
}

// Observe applies one evidence delta: the tuple at source index has
// attribute attr equal to val. The tuple's posterior (on its first
// observation, the block ResolveBlock serves) is conditioned, and the
// result replaces it for every later snapshot; watchers are signaled.
// Observing an already-known value is a no-op; a conflicting or
// zero-remaining-mass observation is an error and changes nothing.
func (d *Dataset) Observe(ctx context.Context, index, attr, val int) (ObserveResult, error) {
	var res ObserveResult
	if d.joinInput {
		return res, fmt.Errorf("derive: dataset %s is a join input (own schema) and accepts no evidence", d.id)
	}
	if index < 0 || index >= len(d.rel.Tuples) {
		return res, fmt.Errorf("derive: tuple index %d out of range [0, %d)", index, len(d.rel.Tuples))
	}
	t := d.rel.Tuples[index]
	if attr < 0 || attr >= len(t) {
		return res, fmt.Errorf("derive: attribute %d out of range", attr)
	}
	if card := d.rel.Schema.Attrs[attr].Card(); val < 0 || val >= card {
		return res, fmt.Errorf("derive: value %d out of range for attribute %s (card %d)",
			val, d.rel.Schema.Attrs[attr].Name, card)
	}
	res = ObserveResult{Index: index, Attr: attr, Val: val}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return res, fmt.Errorf("derive: dataset %s is dropped", d.id)
	}
	if t.IsComplete() {
		// A certain tuple accepts only confirming evidence.
		if t[attr] == val {
			res.Noop, res.Alternatives, res.Collapsed = true, 1, true
			res.Version = d.version
			return res, nil
		}
		return res, fmt.Errorf("derive: observation %d conflicts with certain value %d of tuple %d",
			val, t[attr], index)
	}
	cur, observed := d.posterior[index]
	var err error
	if !observed {
		if cur, _, err = d.eng.ResolveBlock(ctx, t, nil); err != nil {
			return res, err
		}
	}
	res.Noop = cur.Base[attr] == val
	if !res.Noop {
		if cur, err = cur.Observe(attr, val); err != nil {
			return res, err
		}
		d.posterior[index] = cur
		d.version++
		d.eng.countObservation(observed)
		// Subscription delivery is observed once per applied delta (the
		// whole fan-out, not per subscriber): the sends are non-blocking,
		// so the histogram tracks signal latency under many watchers.
		notifyStart := time.Now()
		for _, ch := range d.subs {
			select {
			case ch <- struct{}{}:
			default: // watcher already has a pending signal
			}
		}
		watchNotifySeconds.Since(notifyStart)
	}
	res.Collapsed = cur.Base.IsComplete()
	res.Alternatives = len(cur.Alts)
	res.Epoch = uint64(t.NumMissing() - cur.Base.NumMissing())
	res.Version = d.version
	return res, nil
}

// Snapshot materializes a consistent view of the dataset: the effective
// tuples plus the posterior of every observed tuple, copied under the
// dataset's lock. It runs no inference and takes no engine lock; the
// unobserved tuples resolve lazily at evaluation time. The context is
// not used.
func (d *Dataset) Snapshot(context.Context) (*DatasetSnapshot, error) {
	d.mu.Lock()
	overrides, version := maps.Clone(d.posterior), d.version
	d.mu.Unlock()
	rel := d.rel
	if len(overrides) > 0 {
		tuples := make([]relation.Tuple, len(d.rel.Tuples))
		copy(tuples, d.rel.Tuples)
		for i, b := range overrides {
			tuples[i] = b.Base
		}
		rel = &relation.Relation{Schema: d.rel.Schema, Tuples: tuples}
	}
	return &DatasetSnapshot{Rel: rel, Overrides: overrides, Version: version}, nil
}

// countObservation counts one applied observation, and a superseded
// posterior when the tuple had one.
func (e *Engine) countObservation(superseded bool) {
	e.mu.Lock()
	e.stats.Observations++
	if superseded {
		e.stats.InvalidatedEntries++
	}
	e.mu.Unlock()
}

func (e *Engine) addWatchers(delta int64) {
	e.mu.Lock()
	e.stats.Watchers += delta
	e.mu.Unlock()
}
