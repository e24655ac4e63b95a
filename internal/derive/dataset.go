package derive

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// Live evidence. A registered Dataset turns the engine from a batch
// deriver into a living probabilistic database: the source relation is
// registered once, observations ("tuple 7's income is 50K") arrive as
// deltas, and every later derivation or query over the dataset sees the
// Bayesian-conditioned posterior blocks instead of the priors.
//
// Coherence is the hard part, and the design keeps it exact by keying
// carefully:
//
//   - The engine's block, CPD and bound caches are keyed by tuple
//     CONTENT (the canonical evidence key), so their entries are pure
//     functions of the model — an observation never makes them stale.
//     Conditioning changes which key a tuple resolves under, not what
//     any key means, so those caches need no invalidation at all; the
//     planner's BoundCPD intervals likewise can never be reused stale,
//     because an observed tuple either routes through its conditioned
//     block (no bound computed) or presents post-observation evidence
//     (a different key).
//   - The one derived artifact that IS per-dataset state — the
//     conditioned posterior of block i after its observation log — lives
//     in a bounded engine cache keyed "dataset\x00index" and tagged with
//     the block's observation epoch (the length of its log). Observe
//     eagerly invalidates the superseded entry (exact: only the touched
//     block's key) and installs the new posterior at the next epoch; the
//     epoch tag is the lazy backstop — a reader that races an observe
//     treats the mismatched entry as invalid and recomputes, so a stale
//     posterior is never served. Both paths are counted in
//     Stats.InvalidatedEntries.
//
// A cache miss recomputes the posterior by resolving the base block
// through the engine and replaying the observation log in order. Both
// steps are deterministic (chains are content-seeded; conditioning is
// arithmetic), so eviction never changes answers — only their cost.

// Obs is one applied observation: attribute Attr was seen to be value
// Val (a domain code).
type Obs struct {
	Attr, Val int
}

// Dataset is a registered relation with live evidence. Create with
// Engine.RegisterDataset; safe for concurrent use.
type Dataset struct {
	id        string
	eng       *Engine
	rel       *relation.Relation
	joinInput bool // registered under its own schema; SPJ input only

	mu      sync.Mutex
	obs     map[int][]Obs // observation log per source tuple index
	version uint64        // total observations applied
	subs    map[int]chan struct{}
	subSeq  int
	closed  bool
	done    chan struct{}
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
	// Epoch is the tuple's observation count after this delta; Version is
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
		obs:       make(map[int][]Obs),
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

// DropDataset unregisters a dataset, wakes its watchers (whose
// subscriptions report closure), and drops its conditioned blocks from
// the engine cache. Reports whether the id was registered.
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
	e.observedDropPrefix(id + "\x00")
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

// key returns the engine-cache key of the dataset's conditioned block
// for the source tuple at index.
func (d *Dataset) key(index int) string {
	return d.id + "\x00" + strconv.Itoa(index)
}

// Observe applies one evidence delta: the tuple at source index has
// attribute attr equal to val. The conditioned posterior replaces the
// prior for every later snapshot; watchers are signaled. Observing an
// already-known value is a no-op; a conflicting or zero-remaining-mass
// observation is an error and changes nothing.
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
	log := d.obs[index]
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
	cur, err := d.conditionedLocked(ctx, index, log)
	if err != nil {
		return res, err
	}
	if cur.Base[attr] == val {
		res.Noop = true
		res.Alternatives = len(cur.Alts)
		res.Collapsed = cur.Base.IsComplete()
		res.Epoch = uint64(len(log))
		res.Version = d.version
		return res, nil
	}
	nb, err := cur.Observe(attr, val)
	if err != nil {
		return res, err
	}
	d.obs[index] = append(log, Obs{Attr: attr, Val: val})
	epoch := uint64(len(d.obs[index]))
	key := d.key(index)
	// Exact invalidation: the one cache entry superseded by this delta is
	// dropped eagerly, and the new posterior installed under the new
	// epoch tag. Readers racing this update hit the tag mismatch and
	// recompute; nothing else in the engine is touched.
	d.eng.observedReplace(key, nb, epoch)
	d.version++
	d.eng.countObservation()
	res.Collapsed = nb.Base.IsComplete()
	res.Alternatives = len(nb.Alts)
	res.Epoch = epoch
	res.Version = d.version
	// Subscription delivery is observed once per applied delta (the whole
	// fan-out, not per subscriber): the sends are non-blocking, so the
	// histogram tracks signal latency under many watchers.
	notifyStart := time.Now()
	for _, ch := range d.subs {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending signal
		}
	}
	watchNotifySeconds.Since(notifyStart)
	return res, nil
}

// conditionedLocked returns the conditioned block of the tuple at index
// under the given observation log, from the engine's tagged cache or by
// deterministic recomputation (resolve the base block, replay the log).
// Called with d.mu held or with a log slice captured under it.
func (d *Dataset) conditionedLocked(ctx context.Context, index int, log []Obs) (*pdb.Block, error) {
	t := d.rel.Tuples[index]
	epoch := uint64(len(log))
	if epoch == 0 {
		b, _, err := d.eng.ResolveBlock(ctx, t, nil)
		return b, err
	}
	key := d.key(index)
	if b, ok := d.eng.observedGet(key, epoch); ok {
		return b, nil
	}
	// Chaos harness: widen the window between the tagged-cache miss and
	// the recomputed posterior's install, so the soak exercises readers
	// racing concurrent observes (the epoch tag is the correctness
	// backstop either way).
	faultinject.Fire("observe.replay")
	b, _, err := d.eng.ResolveBlock(ctx, t, nil)
	if err != nil {
		return nil, err
	}
	for _, o := range log {
		if b, err = b.Observe(o.Attr, o.Val); err != nil {
			// Unreachable for logs this dataset applied: the base block is
			// bit-identical on re-derivation and each delta was accepted
			// once already.
			return nil, fmt.Errorf("derive: replaying observation log of tuple %d: %w", index, err)
		}
	}
	d.eng.observedPut(key, b, epoch)
	return b, nil
}

// Snapshot materializes a consistent view of the dataset: effective
// tuples plus conditioned blocks for every observed tuple. Conditioned
// blocks come from the tagged cache when fresh, otherwise by replay;
// the snapshot never blocks observes for the duration of inference on
// unobserved tuples (those resolve lazily at evaluation time).
func (d *Dataset) Snapshot(ctx context.Context) (*DatasetSnapshot, error) {
	d.mu.Lock()
	version := d.version
	logs := make(map[int][]Obs, len(d.obs))
	for i, log := range d.obs {
		logs[i] = log // per-index logs are append-only; the header is a stable view
	}
	d.mu.Unlock()

	overrides := make(map[int]*pdb.Block, len(logs))
	// Deterministic resolution order keeps replay costs predictable.
	idxs := make([]int, 0, len(logs))
	for i := range logs {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		b, err := d.conditionedLocked(ctx, i, logs[i])
		if err != nil {
			return nil, err
		}
		overrides[i] = b
	}
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

// Engine-side accessors for the conditioned-block cache and the live
// gauges. All take e.mu; none are called with it held.

func (e *Engine) observedGet(key string, epoch uint64) (*pdb.Block, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observed.GetTagged(key, epoch)
}

func (e *Engine) observedPut(key string, b *pdb.Block, epoch uint64) {
	e.mu.Lock()
	e.observed.PutTagged(key, b, epoch)
	e.mu.Unlock()
}

// observedReplace invalidates the superseded entry under key (if
// present) and installs the new posterior at the next epoch, atomically
// under the engine lock.
func (e *Engine) observedReplace(key string, b *pdb.Block, epoch uint64) {
	e.mu.Lock()
	e.observed.Invalidate(key)
	e.observed.PutTagged(key, b, epoch)
	e.mu.Unlock()
}

// observedDropPrefix invalidates every conditioned-block entry of a
// dropped dataset.
func (e *Engine) observedDropPrefix(prefix string) {
	e.mu.Lock()
	var keys []string
	e.observed.Range(func(k string, _ *pdb.Block) bool {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
		return true
	})
	for _, k := range keys {
		e.observed.Invalidate(k)
	}
	e.mu.Unlock()
}

func (e *Engine) countObservation() {
	e.mu.Lock()
	e.stats.Observations++
	e.mu.Unlock()
}

func (e *Engine) addWatchers(delta int64) {
	e.mu.Lock()
	e.stats.Watchers += delta
	e.mu.Unlock()
}
