// Package derive implements the long-lived, concurrency-safe derivation
// engine behind the paper's end-to-end pipeline (Section VI): every
// complete tuple of an incomplete relation becomes a certain tuple of the
// output database, every incomplete tuple becomes a block of mutually
// exclusive completions distributed according to the inferred Delta_t.
//
// The engine improves on a naive sequential derivation in three ways:
//
//   - Inference is scheduled per block: each distinct incomplete tuple is
//     one independent unit of work, prefetched ahead of the emitter by one
//     worker pool, started at the stream's first cache miss, through one
//     single-flight block cache keyed by the tuple's canonical evidence
//     (relation.Tuple.Key), so duplicates hit the cache and each block is
//     ready as soon as its own unit has run — not when the whole batch
//     has. A single-missing unit is Algorithm 2's
//     ensemble vote; a multi-missing one is gibbs.Infer, which solves small
//     kernels exactly, as the stationary distribution of the chain's sweep
//     kernel, and runs a content-seeded Gibbs chain for the rest.
//   - Completed pdb.Blocks are streamed to the caller in input order
//     into a Sink, so callers can persist or serve blocks without ever
//     holding the whole database in memory.
//   - Results do not depend on the pool size: voting is deterministic,
//     exact solves use no randomness and chains are seeded by tuple
//     content, so every Workers value is bit-identical, and emission order
//     is the input order regardless of which goroutine finished first.
//
// An Engine is safe for concurrent use: any number of goroutines may run
// overlapping Stream calls against one engine. The memoization caches are
// shared and persist across calls, so a serving deployment pays for each
// distinct evidence pattern once, no matter which request saw it first,
// and a tuple's estimate is the same whether it was inferred by this
// request, an earlier one, or a concurrent one.
package derive

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"time"

	"repro/internal/clockcache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/gibbs"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/relation"
	"repro/internal/vote"
)

// Config controls an Engine.
type Config struct {
	// Method is the voting method for single-missing tuples. The zero
	// value is all-voters/averaged.
	Method vote.Method
	// Gibbs configures multi-missing inference.
	Gibbs gibbs.Config
	// MaxAlternatives caps each emitted block's alternatives (most
	// probable kept, renormalized); <= 0 keeps all combinations.
	MaxAlternatives int
	// Workers is the default size of the per-request prefetch pool, which
	// infers every distinct incomplete tuple, votes, exact solves and
	// chains alike; <= 0 selects GOMAXPROCS. Each distinct tuple is one
	// independent unit — a deterministic vote, an exact solve with no
	// randomness, or a chain seeded by its content — so the result does not
	// depend on the pool size.
	Workers int
	// CacheEntries bounds each of the engine's memoization caches (the
	// block cache as a whole, single- and multi-missing blocks together,
	// and the shared local-CPD cache) to that many entries, evicted
	// CLOCK-wise. <= 0 leaves the block cache unbounded (one entry per
	// distinct damage pattern) and caps the CPD cache at its default
	// (gibbs.DefaultCPDCacheEntries; CPD entries grow with the sampled
	// state space, not the workload, so they are always bounded).
	// Evictions never change emitted streams — every cached value is a
	// deterministic function of the model and its key — they only cost
	// recomputation. Live datasets' conditioned posteriors are not cached:
	// each dataset owns one block per observed tuple.
	CacheEntries int
}

// Pools sizes the worker pool of one Stream request. A zero Workers
// inherits the engine Config's; a positive one overrides it for this
// request only. The pool size never changes the emitted stream — only
// how many goroutines compute it — so per-request sharding is always
// safe.
type Pools struct {
	Workers int
}

// PanicError is the typed per-request error a recovered panic becomes:
// inference panics (a poisoned model, an injected fault) are confined to
// the requests that hit them instead of crashing the process, and the
// engine's shared caches stay serviceable — the panicking computation's
// cache slot is invalidated, so a later identical request recomputes it
// from scratch. Match with errors.As; Stats.PanicsRecovered counts them.
type PanicError struct {
	// Op names the goroutine boundary that recovered ("vote", "chain",
	// "emit", "prefetch", "watch").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("derive: recovered panic in %s: %v", e.Op, e.Value)
}

// SchemaMismatchError reports a relation whose schema is not
// attribute-for-attribute identical to the model's. It is returned up
// front, before any inference runs.
type SchemaMismatchError struct {
	// Model and Data are the two schemas that failed to match.
	Model, Data *relation.Schema
	// Diff is a one-line description of the first difference.
	Diff string
}

func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("derive: relation schema does not match model schema: %s", e.Diff)
}

// Item is one streamed element of the derived database. Items arrive in
// input order: Index is the tuple's position in the source relation.
// Exactly one of the two interpretations applies: a complete input tuple
// is passed through as a certain tuple (Block == nil), an incomplete one
// arrives with its completion Block.
//
// Blocks are shared, not copied: every duplicate of a damage pattern —
// within a stream, across overlapping streams, and across requests for
// the engine's lifetime — receives the same *pdb.Block, served from the
// engine cache. Consumers must treat a received Block (including its
// alternatives and their tuples) as immutable; callers that need to
// modify one must copy it first.
type Item struct {
	// Index is the position of the source tuple in the input relation.
	Index int
	// Tuple is the source tuple (complete for certain items, incomplete
	// for blocks).
	Tuple relation.Tuple
	// Block is the inferred completion distribution, nil for certain
	// tuples.
	Block *pdb.Block
}

// Certain reports whether the item is a pass-through complete tuple.
func (it Item) Certain() bool { return it.Block == nil }

// EmitFunc is a Sink made of one function: Emit calls it, and Close does
// nothing. Returning an error stops the stream; Stream returns that
// error.
type EmitFunc func(Item) error

// Emit calls f.
func (f EmitFunc) Emit(it Item) error { return f(it) }

// Close does nothing.
func (f EmitFunc) Close() error { return nil }

// Source is what a stream derives: a *relation.Relation, or a
// *DatasetSnapshot, whose observed tuples emit their conditioned
// posterior blocks instead of being inferred. internal/query evaluates
// the same sources, and compiled SPJ queries, whose joined relation is
// their SourceRelation.
type Source interface {
	// SourceRelation returns the relation whose tuples the stream scans,
	// in input order.
	SourceRelation() *relation.Relation
}

// Stats instruments the engine's caches. With the exception of the live
// gauges (Watchers, Datasets), all counters are monotonically
// non-decreasing over the engine's lifetime; concurrent requests update
// them atomically.
type Stats struct {
	// VotesComputed counts distinct single-missing evidence patterns that
	// were actually voted (cache misses).
	VotesComputed int64
	// SingleTuples counts single-missing input tuples served, by streams
	// and by ResolveBlock (query scans and dataset snapshots alike). The
	// difference SingleTuples - VotesComputed is the number of tuples
	// answered purely from the block cache (duplicates).
	SingleTuples int64
	// GibbsComputed counts distinct multi-missing tuples actually
	// inferred (cache misses), on either tier: solved exactly or sampled
	// by a chain.
	GibbsComputed int64
	// ExactSolved counts the multi-missing tuples of GibbsComputed that
	// were solved exactly, as the stationary distribution of their
	// chain's kernel, instead of sampled (see gibbs.Infer).
	ExactSolved int64
	// MultiTuples counts multi-missing input tuples served, by streams
	// and by ResolveBlock.
	MultiTuples int64
	// GibbsCacheHits counts multi-missing resolutions served from the
	// engine's cache (in-flight or completed) rather than sampled by the
	// requester itself.
	GibbsCacheHits int64
	// PointsSampled counts chain draws, including burn-in. An exact solve
	// draws none.
	PointsSampled int64
	// Streams counts completed Stream calls (successful or not).
	Streams int64
	// Evictions counts entries dropped from the engine's bounded block
	// cache (always 0 when Config.CacheEntries <= 0).
	Evictions int64
	// CPDHits, CPDMisses, and CPDEvictions instrument the shared local-CPD
	// cache: probes served, probes missed, and entries dropped by its
	// CLOCK sweep.
	CPDHits, CPDMisses, CPDEvictions int64

	// EnvelopeHits and EnvelopeMisses instrument BoundCPD's shared
	// interval cache: probes of a finished per-tuple [lo, hi] interval
	// served from the sharded CLOCK cache, and probes that missed and
	// were enumerated. Overlapping concurrent queries show up here as the
	// second query's hits.
	EnvelopeHits, EnvelopeMisses int64

	// Replans counts executor re-plan rounds: topk waves whose sweep cut
	// at least one remaining candidate the held rank k already decides,
	// so its chain never runs.
	Replans int64

	// Fail-soft counters.

	// PanicsRecovered counts panics caught at goroutine boundaries (vote
	// and Gibbs pools, prefetchers, sinks, watch fan-out) and converted
	// into per-request errors instead of crashing the process.
	PanicsRecovered int64
	// DeadlineMisses counts requests whose deadline expired before exact
	// evaluation finished — streams cut short and queries that had to
	// degrade (every Degraded evaluation is also a deadline miss).
	DeadlineMisses int64
	// Degraded counts query evaluations that answered remaining tuples
	// from their sound bound intervals instead of exact inference because
	// the request's deadline budget ran out.
	Degraded int64

	// Live-evidence counters (see dataset.go).

	// Observations counts evidence deltas applied to live datasets
	// (no-ops and rejected observations excluded).
	Observations int64
	// InvalidatedEntries counts live datasets' conditioned posteriors that
	// a later observation of the same tuple superseded. Disjoint from
	// Evictions.
	InvalidatedEntries int64
	// Watchers is the number of live watch subscriptions (a gauge).
	Watchers int64
	// Datasets is the number of registered live datasets (a gauge).
	Datasets int64

	// Query counters, reported by the extensional query evaluator
	// (internal/query) through RecordQuery. They partition the tuples a
	// query scanned by how much inference each one cost.

	// Queries counts completed query evaluations against the engine.
	Queries int64
	// QueryTuples counts input tuples scanned by queries.
	QueryTuples int64
	// QueryPruned counts tuples decided with no inference at all:
	// complete tuples, tuples whose known values (or a structurally
	// empty satisfying set) refuted the predicates outright, and tuples
	// early termination made irrelevant.
	QueryPruned int64
	// QueryBounded counts tuples decided without a Gibbs chain or an
	// exact solve: single-missing tuples answered from their voted block,
	// and multi-missing tuples decided by a dissociation bound interval.
	QueryBounded int64
	// QueryDerived counts tuples queries sent to full block derivation.
	QueryDerived int64
	// BoundRefutes counts query tuples excluded by a bound interval's
	// upper side (Hi below the decision threshold) — selectivity the
	// bound engine delivered without sampling.
	BoundRefutes int64
	// QueryBoundWidth accumulates the width of the final probability
	// bound interval of each scanned tuple: 0 for evidence- or
	// CPD-decided tuples, the real dissociation-interval width for
	// multi-missing tuples that received one (decided or not), and 1 only
	// for tuples whose bounds stayed vacuous and had to be derived.
	QueryBoundWidth float64
	// QueriesDissociated counts the completed queries whose answer was
	// computed over a dissociated lineage: an unsafe SPJ plan evaluated
	// extensionally, reporting a sound upper bound instead of the exact
	// intensional mass.
	QueriesDissociated int64
}

// VoteHitRate returns the fraction of single-missing input tuples served
// from the shared block cache rather than voted afresh. Clamped at 0: the
// prefetch pool runs ahead of the emitters, so a snapshot taken
// mid-stream (or after an aborted stream) can have computed more
// patterns than it has served tuples.
func (s Stats) VoteHitRate() float64 {
	return hitRate(s.SingleTuples, s.VotesComputed)
}

// GibbsHitRate returns the fraction of multi-missing input tuples served
// from the shared block cache rather than inferred afresh, clamped at 0
// like VoteHitRate.
func (s Stats) GibbsHitRate() float64 {
	return hitRate(s.MultiTuples, s.GibbsComputed)
}

func hitRate(served, computed int64) float64 {
	if served == 0 || computed > served {
		return 0
	}
	return float64(served-computed) / float64(served)
}

// Engine is a long-lived, reusable derivation engine. It is safe for
// concurrent use by multiple goroutines; the memoization caches are
// shared across overlapping Stream calls and persist between them.
type Engine struct {
	model *core.Model
	cfg   Config

	// cpd is the shared, sharded, bounded local-CPD cache: one per engine,
	// used by every exact solve, Gibbs chain and bound envelope and
	// consulted by the single-missing vote path. It has its own internal
	// locking.
	cpd *gibbs.CPDCache

	mu    sync.Mutex
	stats Stats

	// bmu guards blocks, the completion blocks by evidence key. lookup
	// finds an existing entry under the read lock, so streams served from
	// the cache at once do not queue on it, and bumps its counters —
	// Stats' VotesComputed, SingleTuples, MultiTuples and GibbsCacheHits
	// — atomically, outside mu.
	bmu                               sync.RWMutex
	blocks                            *clockcache.Map[*entry]
	votes, singles, multis, multiHits atomic.Int64

	// dsMu guards the live-dataset registry. Never held together with mu.
	dsMu     sync.Mutex
	datasets map[string]*Dataset
	dsSeq    int
}

// entry is a single-flight cache slot for one distinct evidence pattern.
// The claimer computes block/err and closes ready; everyone else waits on
// ready. The slot memoizes the expanded completion block, not the joint —
// blocks are immutable once built, so every duplicate of a damage pattern
// shares one block instead of re-expanding the joint per emission.
type entry struct {
	ready chan struct{}
	block *pdb.Block
	err   error
}

// entryDone reports whether an entry's computation has finished — only
// finished entries may be evicted, so a claimer's pending write is never
// orphaned into an unreachable slot while waiters still expect the memo.
func entryDone(en *entry) bool {
	select {
	case <-en.ready:
		return true
	default:
		return false
	}
}

// New returns an engine over the model.
func New(model *core.Model, cfg Config) (*Engine, error) {
	if model == nil {
		return nil, fmt.Errorf("derive: nil model")
	}
	if err := cfg.Gibbs.Validate(); err != nil {
		return nil, fmt.Errorf("derive: Config.Gibbs: %w", err)
	}
	e := &Engine{
		model:    model,
		cfg:      cfg,
		cpd:      gibbs.NewCPDCache(cfg.CacheEntries),
		blocks:   clockcache.New[*entry](cfg.CacheEntries, entryDone),
		datasets: make(map[string]*Dataset),
	}
	// Every chain the engine runs shares the engine-level CPD memo.
	e.cfg.Gibbs.Cache = e.cpd
	return e, nil
}

// Model returns the model the engine serves.
func (e *Engine) Model() *core.Model { return e.model }

// Stats returns a snapshot of the engine's cache instrumentation.
func (e *Engine) Stats() Stats {
	cpd := e.cpd.Stats()
	e.mu.Lock()
	st := e.stats
	e.mu.Unlock()
	e.bmu.Lock() // lookup bumps the counters under bmu: read them between its sections
	st.Evictions = e.blocks.Evictions()
	st.VotesComputed, st.SingleTuples = e.votes.Load(), e.singles.Load()
	st.MultiTuples, st.GibbsCacheHits = e.multis.Load(), e.multiHits.Load()
	e.bmu.Unlock()
	st.CPDHits = cpd.Hits
	st.CPDMisses = cpd.Misses
	st.CPDEvictions = cpd.Evictions
	e.dsMu.Lock()
	st.Datasets = int64(len(e.datasets))
	e.dsMu.Unlock()
	return st
}

// lookup returns the block cache entry for key, creating and claiming it
// if absent. claimed is true when the caller must compute the entry and
// close ready. The nilable counters are bumped under the block-cache lock
// — computed on a claim, served once per call, hits once per found entry.
// An existing entry is found under the read lock alone; only a claim
// takes the write lock. The byte key is copied only when a new entry is
// claimed; the hit path does not allocate.
//
// o is the calling stream or a ResolveBlock caller's idle hook (nil for
// a prefetch worker). When key is absent and o has items to flush (or a
// report pending), lookup flushes them before it claims, with the lock
// released, and then looks again: a flush is a socket write that blocks
// while the client is not reading, and every request that needs a
// claimed slot waits for its claimer.
func (e *Engine) lookup(key []byte, o *out, computed, served, hits *atomic.Int64) (en *entry, claimed bool) {
	if faultinject.Enabled() && faultinject.Fire("cache.storm") {
		// Chaos harness: an eviction storm drops every completed entry of
		// the block cache. In-flight single-flight slots are spared so a
		// claimer's pending write is never orphaned mid-computation; the
		// storm costs recomputation, never changes answers.
		e.bmu.Lock()
		var doomed []string
		e.blocks.Range(func(k string, v *entry) bool {
			if entryDone(v) {
				doomed = append(doomed, k)
			}
			return true
		})
		for _, k := range doomed {
			e.blocks.Invalidate(k)
		}
		e.bmu.Unlock()
	}
	e.bmu.RLock()
	count(served)
	en, ok := e.blocks.Get(key)
	if ok {
		count(hits)
	}
	e.bmu.RUnlock()
	if ok {
		return en, false
	}
	e.bmu.Lock()
	defer e.bmu.Unlock()
	en, ok = e.blocks.Get(key)
	if !ok && o.dirty() {
		e.bmu.Unlock()
		o.idle() // recovers its own panics, so the lock is always retaken
		e.bmu.Lock()
		en, ok = e.blocks.Get(key)
	}
	if ok {
		count(hits)
		return en, false
	}
	en = &entry{ready: make(chan struct{})}
	e.blocks.Put(key, en)
	count(computed)
	return en, true
}

// count adds one to the counter c, if any.
func count(c *atomic.Int64) {
	if c != nil {
		c.Add(1)
	}
}

// QueryRecord carries one query evaluation's pruning counters into
// RecordQuery. Tuples = Pruned + Bounded + Derived.
type QueryRecord struct {
	Tuples, Pruned, Bounded, Derived int64
	// BoundRefutes counts tuples excluded by a bound interval's upper
	// side (a subset of Bounded).
	BoundRefutes int64
	// BoundWidth accumulates the final bound-interval width per scanned
	// tuple (see Stats.QueryBoundWidth).
	BoundWidth float64
	// Dissociated marks an evaluation whose answer dissociated an unsafe
	// SPJ lineage (see Stats.QueriesDissociated).
	Dissociated bool
	// Degraded marks an evaluation that ran out of deadline budget and
	// answered remaining tuples from sound bound intervals (see
	// Stats.Degraded; it also counts as a deadline miss).
	Degraded bool
	// Replans counts the evaluation's re-plan rounds (see Stats.Replans).
	Replans int64
}

// RecordQuery folds one query evaluation's pruning counters into the
// engine stats. internal/query calls it once per completed evaluation.
func (e *Engine) RecordQuery(r QueryRecord) {
	e.mu.Lock()
	e.stats.Queries++
	e.stats.QueryTuples += r.Tuples
	e.stats.QueryPruned += r.Pruned
	e.stats.QueryBounded += r.Bounded
	e.stats.QueryDerived += r.Derived
	e.stats.BoundRefutes += r.BoundRefutes
	e.stats.QueryBoundWidth += r.BoundWidth
	e.stats.Replans += r.Replans
	if r.Dissociated {
		e.stats.QueriesDissociated++
	}
	if r.Degraded {
		e.stats.Degraded++
		e.stats.DeadlineMisses++
	}
	e.mu.Unlock()
}

// MarginalCPD returns the voted distribution of attribute attr — which
// must be missing in t — given t's known values, through the engine's
// shared local-CPD cache. hit reports whether it was served from cache.
// The returned distribution is shared and must not be mutated.
//
// A single-missing tuple's block is voted through it, so the block holds
// exactly this distribution's positive values. Query evaluation reads
// those blocks through ResolveBlock; the query planner calls MarginalCPD
// only for the evidence-free marginals behind its selectivity estimates. For multi-missing tuples the voted marginal is a different
// estimator than the joint's marginal — an approximation, not a bound.
func (e *Engine) MarginalCPD(t relation.Tuple, attr int) (d dist.Dist, hit bool, err error) {
	if attr < 0 || attr >= len(t) || t[attr] != relation.Missing {
		return nil, false, fmt.Errorf("derive: attribute %d is not missing in %v", attr, t)
	}
	key := gibbs.AppendCPDKey(nil, attr, e.cfg.Method, t)
	if d, ok := e.cpd.Get(key); ok {
		return d, true, nil
	}
	d, err = vote.Infer(e.model, t, attr, e.cfg.Method)
	if err != nil {
		return nil, false, err
	}
	e.cpd.Put(key, d)
	return d, false, nil
}

// counters returns the Stats counters a lookup of incomplete tuple t
// bumps, chosen by its number of missing values: a single-missing tuple
// counts VotesComputed when claimed and SingleTuples when served; a
// multi-missing one MultiTuples when served and GibbsCacheHits when
// found (infer counts its GibbsComputed, on success only).
func (e *Engine) counters(t relation.Tuple) (computed, served, hits *atomic.Int64) {
	if t.NumMissing() == 1 {
		return &e.votes, &e.singles, nil
	}
	return nil, &e.multis, &e.multiHits
}

// ResolveBlock returns the completion block of one incomplete tuple
// through the engine's block cache, exactly as a Stream over a relation
// containing t would emit it. hit reports whether the answer was served
// from the cache rather than inferred by this call. It is the per-tuple
// entry point of the query evaluator and of dataset snapshots; the
// returned block is shared and must be treated as immutable.
//
// idle (nil for none) is the caller's hook for the moment it would wait:
// ResolveBlock calls it at most once, on the caller's goroutine, just
// before it computes t's block inline or waits on another goroutine's
// computation of it, and never on a cache hit. It runs with the engine
// lock released and where a stream flushes its sink, behind the same
// panic boundary: a panic in idle becomes a *PanicError with Op "emit".
// An error from idle, or that panic, is returned instead of the block.
func (e *Engine) ResolveBlock(ctx context.Context, t relation.Tuple, idle func() error) (b *pdb.Block, hit bool, err error) {
	if t.IsComplete() {
		return nil, false, fmt.Errorf("derive: tuple %v is complete", t)
	}
	o := &out{e: e, flush: idle, pending: true}
	b, hit, err = e.resolve(ctx, t, t.AppendKey(nil), o, nil)
	if o.err != nil {
		return nil, hit, o.err
	}
	return b, hit, err
}

// resolve returns the memoized block of incomplete tuple t, inferring it
// inline if this caller claims the cache slot (the emitter steals work
// the prefetch pool has not reached) and waiting for the in-flight
// computation otherwise (or until ctx is canceled). It is the fetch path
// of streams and ResolveBlock, so it counts served tuples. key is t's
// evidence key. hit reports whether the entry already existed. Before it
// computes or waits it calls miss (nil for none) and lets o, the calling
// stream or a ResolveBlock caller's idle hook, flush what the stream has
// emitted so far (see lookup and waitReady).
func (e *Engine) resolve(ctx context.Context, t relation.Tuple, key []byte, o *out, miss func()) (b *pdb.Block, hit bool, err error) {
	computed, served, hits := e.counters(t)
	en, claimed := e.lookup(key, o, computed, served, hits)
	if miss != nil && (claimed || !entryDone(en)) {
		miss()
	}
	if claimed {
		e.fill(en, t, key)
	} else if err := waitReady(ctx, en.ready, o); err != nil {
		return nil, true, err
	}
	return en.block, !claimed, en.err
}

// warm is the prefetch pool's resolve: it fills t's cache slot if it can
// claim it and never waits on a slot another goroutine claimed.
func (e *Engine) warm(t relation.Tuple, key []byte) {
	computed, _, _ := e.counters(t)
	if en, claimed := e.lookup(key, nil, computed, nil, nil); claimed {
		e.fill(en, t, key)
	}
}

// waitReady blocks until ready closes or ctx is canceled. A canceled wait
// never abandons a claimed computation — the claimer always finishes and
// closes the entry, so the cache is never poisoned by cancellation.
// The fast path (entry already computed — the steady-state cache-hit
// serving path) is a single non-blocking probe; only genuine waits on
// another goroutine's in-flight computation flush o and read the clock.
func waitReady(ctx context.Context, ready <-chan struct{}, o *out) error {
	select {
	case <-ready:
		return nil
	default:
	}
	o.idle()
	start := time.Now()
	defer prefetchWaitSeconds.Since(start)
	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// fill computes a claimed entry: t's block, inferred by infer and timed
// in mrsl_derive_vote_seconds when t is single-missing and in
// mrsl_derive_chain_seconds otherwise, on either multi-missing tier. A
// panic during the computation is recovered into en.err as a *PanicError
// with Op "vote" or "chain", and the slot is invalidated; the deferred
// close always runs (after the recovery, so waiters never observe a
// half-written entry).
func (e *Engine) fill(en *entry, t relation.Tuple, key []byte) {
	op, seconds := "chain", chainSeconds
	if t.NumMissing() == 1 {
		op, seconds = "vote", voteSeconds
	}
	defer close(en.ready)
	defer e.recoverEntry(en, key, op)
	defer seconds.Since(time.Now())
	en.block, en.err = e.infer(t)
}

// infer computes the completion block of incomplete tuple t, one unit of
// per-block work. A single-missing tuple is voted by Algorithm 2 through
// MarginalCPD, which shares the engine's CPD cache with the Gibbs
// chains: its evidence state is exactly a chain state with one attribute
// under resampling, so whichever path sees the pattern first spares the
// other the vote. A multi-missing tuple goes through gibbs.Infer, which
// solves small kernels exactly and runs the content-seeded chain for the
// rest; GibbsComputed and ExactSolved count its successes only, so a
// tuple whose inference failed is not reported as computed.
func (e *Engine) infer(t relation.Tuple) (*pdb.Block, error) {
	var j *dist.Joint
	if missing := t.MissingAttrs(); len(missing) == 1 {
		faultinject.Fire("derive.vote")
		attr := missing[0]
		d, _, err := e.MarginalCPD(t, attr)
		if err != nil {
			return nil, err
		}
		if j, err = dist.NewJoint(missing, []int{e.model.Schema.Attrs[attr].Card()}); err != nil {
			return nil, err
		}
		copy(j.P, d)
	} else {
		faultinject.Fire("derive.chain")
		var points int
		var exact bool
		var err error
		j, points, exact, err = gibbs.Infer(e.model, e.cfg.Gibbs, t)
		e.mu.Lock()
		e.stats.PointsSampled += int64(points)
		if err == nil {
			e.stats.GibbsComputed++
			if exact {
				e.stats.ExactSolved++
			}
		}
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return pdb.NewBlock(t, j, e.cfg.MaxAlternatives)
}

// recoverEntry is the deferred panic boundary of a single-flight
// computation: it turns a panic into a typed PanicError on the entry
// (visible to every waiter) and invalidates the cache slot so the
// poisoned result is never memoized — the next identical request claims
// a fresh slot and recomputes. Registered after the close defer, so it
// runs first and the entry is complete when ready closes.
func (e *Engine) recoverEntry(en *entry, key []byte, op string) {
	r := recover()
	if r == nil {
		return
	}
	en.block = nil
	en.err = &PanicError{Op: op, Value: r, Stack: debug.Stack()}
	e.mu.Lock()
	e.stats.PanicsRecovered++
	e.mu.Unlock()
	e.bmu.Lock()
	e.blocks.Invalidate(string(key))
	e.bmu.Unlock()
}

// PrefetchBlocks warms the engine's block cache for the given tuples
// across the request's worker pool, in order, until every distinct
// incomplete tuple is claimed or ctx is canceled. The pool size affects
// scheduling only — a subsequent ResolveBlock serves bit-identical
// results whether or not the prefetch ran. Complete tuples are skipped.
// It blocks until its workers have drained.
//
// idle (nil for none) is ResolveBlock's hook: PrefetchBlocks calls it
// once, on the caller's goroutine while the pool works, behind the same
// panic boundary, and returns its error once the pool has drained. The
// workers never call it.
func (e *Engine) PrefetchBlocks(ctx context.Context, tuples []relation.Tuple, pools Pools, idle func() error) error {
	// quit is never closed here: the dispatcher runs to the end of its
	// tuple list unless ctx cancels it.
	var wg sync.WaitGroup
	e.prefetch(ctx, &wg, make(chan struct{}), tuples, 0, nil, pools)
	o := &out{e: e, flush: idle, pending: true}
	o.idle()
	wg.Wait()
	return o.err
}

// prefetch starts one pool that warms the distinct incomplete tuples of
// tuples[from:] that overrides (nil for none) does not map, in
// first-appearance order until done, quit closes, or ctx is canceled;
// wg tracks its goroutines. Its dispatcher goroutine walks the tuples,
// then starts the workers, each reusing one key buffer, and hands them
// the tuples. Only distinct damage patterns are dispatched — duplicates
// would be single-probe no-ops, but even those probes cost a channel
// handoff and a block-cache lock acquisition each.
func (e *Engine) prefetch(ctx context.Context, wg *sync.WaitGroup, quit chan struct{}, tuples []relation.Tuple, from int, overrides map[int]*pdb.Block, pools Pools) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[string]bool, len(tuples)-from)
		var distinct []relation.Tuple
		var keyBuf []byte
		for i, t := range tuples[from:] {
			if t.IsComplete() || overrides[from+i] != nil {
				continue
			}
			keyBuf = t.AppendKey(keyBuf[:0])
			if !seen[string(keyBuf)] {
				seen[string(keyBuf)] = true
				distinct = append(distinct, t)
			}
		}
		if len(distinct) == 0 {
			return
		}
		work := make(chan relation.Tuple)
		defer close(work)
		for w := poolSize(pools.Workers, e.cfg.Workers, len(distinct)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var keyBuf []byte
				for t := range work {
					keyBuf = t.AppendKey(keyBuf[:0])
					e.safeWarm(t, keyBuf)
				}
			}()
		}
		for _, t := range distinct {
			select {
			case work <- t:
			case <-quit:
				return
			case <-ctx.Done():
				return
			}
		}
	}()
}

// out is the consumer end of one emit loop: the sink's Emit behind a
// panic boundary, and its optional Flush (nil for an EmitFunc or another
// sink without one). The idle hook of a ResolveBlock or PrefetchBlocks
// caller is an out with no sink, the hook as its Flush (nil for none) and
// one report pending, so lookup and waitReady call it where they would
// flush a stream. A panic in either (a broken Sink implementation, a
// panicking hook, an injected fault) becomes the request's *PanicError
// with Op "emit" instead of crashing the process; the engine and its
// caches are unaffected.
type out struct {
	e       *Engine
	sink    Sink
	flush   func() error
	started bool  // an item has been emitted
	pending bool  // items were emitted since the last flush
	err     error // a failed flush, returned by the next put
}

// put emits one item. The stream's first item is flushed at once, so the
// reader gets its first record without waiting for the second.
func (o *out) put(it Item) (err error) {
	if o.err != nil {
		return o.err
	}
	defer o.recoverEmit(&err)
	if err = o.sink.Emit(it); err != nil {
		return err
	}
	o.pending = true
	if !o.started {
		o.started = true
		o.idle()
		return o.err
	}
	return nil
}

// idle flushes the items emitted since the last flush. The emit loop
// calls it just before it waits on, or computes inline, an item whose
// cache entry is not done, so a ready line never sits in a buffer while
// the engine works; a stream of cache hits flushes only after its first
// item. It never runs while the stream holds a claimed cache slot (see
// lookup). It is a no-op unless o is dirty. A flush error is kept for the
// next put to return.
func (o *out) idle() {
	if !o.dirty() {
		return
	}
	o.pending = false
	defer o.recoverEmit(&o.err)
	o.err = o.flush()
}

// dirty reports whether idle would flush: items were emitted since the
// last flush (or a hook's report is pending), the sink has a Flush, and
// no flush has failed. It is false on a nil out (a prefetch worker) and
// on one without a Flush (an EmitFunc sink, a caller without a hook).
func (o *out) dirty() bool {
	return o != nil && o.pending && o.flush != nil && o.err == nil
}

// recoverEmit is the deferred panic boundary of put and idle.
func (o *out) recoverEmit(err *error) {
	if r := recover(); r != nil {
		o.e.mu.Lock()
		o.e.stats.PanicsRecovered++
		o.e.mu.Unlock()
		*err = &PanicError{Op: "emit", Value: r, Stack: debug.Stack()}
	}
}

// Unpack checks src against the model's schema and returns its relation
// and, for a dataset snapshot, the conditioned posterior block of each
// observed tuple (nil otherwise). Stream and the query evaluator unpack
// every source through it, so both reject a nil source and a schema
// mismatch alike.
func (e *Engine) Unpack(src Source) (*relation.Relation, map[int]*pdb.Block, error) {
	var rel *relation.Relation
	if src != nil {
		rel = src.SourceRelation()
	}
	if rel == nil {
		return nil, nil, fmt.Errorf("derive: nil relation")
	}
	if d := e.model.Schema.Diff(rel.Schema); d != "" {
		return nil, nil, &SchemaMismatchError{Model: e.model.Schema, Data: rel.Schema, Diff: d}
	}
	var observed map[int]*pdb.Block
	if snap, ok := src.(*DatasetSnapshot); ok {
		observed = snap.Overrides
	}
	return rel, observed, nil
}

// Stream derives the probabilistic database of src and emits it into
// sink item by item, in input order: complete tuples pass through as
// certain items, incomplete tuples arrive as blocks, and a snapshot's
// observed tuples emit their conditioned posterior blocks (or pass
// through as certain items once evidence has collapsed them).
// Single-missing voting and multi-missing inference run on a per-request
// worker pool concurrently with emission, from the stream's first cache
// miss on (a stream served from the caches starts no pool); inference is
// scheduled per block, so each block becomes available as soon as its
// own unit has run. src's schema must match the model's, else a
// *SchemaMismatchError is returned before any inference runs.
//
// Stream calls the sink's Close once the last item is emitted. If the
// stream or the sink fails, Stream returns that error after draining
// its workers, without calling Close, so a partial output is never
// flushed as if it were complete. Canceling ctx stops the stream the
// same way: the dispatchers stop scheduling new work, the emitter stops
// waiting for in-flight entries, and Stream returns ctx.Err(). Work
// already claimed when the cancel lands is always completed (and
// cached) rather than abandoned, so cancellation never poisons the
// shared caches. Overlapping calls from multiple goroutines are safe and
// share the engine's caches.
//
// Every stream, Close included, is observed in mrsl_derive_sink_seconds,
// and, Close excluded, as the request trace's derive.stream span; it is
// counted in Stats.Streams (and Stats.DeadlineMisses when its deadline
// expired), successful or not. There is no per-item timing: it would put
// a clock read on the per-tuple hot path.
func (e *Engine) Stream(ctx context.Context, src Source, pools Pools, sink Sink) error {
	start := time.Now()
	defer sinkStreamSeconds.Since(start)
	var flush func() error
	if f, ok := sink.(interface{ Flush() error }); ok {
		flush = f.Flush
	}
	rel, observed, err := e.Unpack(src)
	if err == nil {
		err = e.stream(ctx, rel.Tuples, observed, pools, &out{e: e, sink: sink, flush: flush})
	}
	obs.TraceFrom(ctx).Since("derive.stream", start)
	e.mu.Lock()
	e.stats.Streams++
	if errors.Is(err, context.DeadlineExceeded) {
		e.stats.DeadlineMisses++
	}
	e.mu.Unlock()
	if err != nil {
		return err
	}
	return sink.Close()
}

// stream is the emit loop of every source. overrides (nil unless the
// source is a snapshot) maps a snapshot's tuple index to its conditioned
// posterior block: such a tuple emits that block, or its base as a
// certain item once evidence has collapsed it, and is neither prefetched
// nor resolved.
func (e *Engine) stream(ctx context.Context, tuples []relation.Tuple, overrides map[int]*pdb.Block, pools Pools, o *out) error {
	// The pool prefetches blocks ahead of the emitter, through the same
	// single-flight cache the emitter resolves from. It starts at the
	// stream's first miss — the first tuple whose block the emitter must
	// compute or wait for — and covers the tuples after it, so a stream
	// served from the caches starts no goroutine. quit stops its
	// dispatcher early when emission ends, and the loop returns only
	// after it has drained.
	quit := make(chan struct{})
	var wg sync.WaitGroup
	var next int // the index after the tuple being resolved
	var miss func()
	miss = func() {
		miss = nil
		e.prefetch(ctx, &wg, quit, tuples, next, overrides, pools)
	}

	// Emit in input order. The emitter steals unclaimed work (resolve
	// computes inline when the pool has not reached the entry yet), so it
	// never idles behind the pool. Evidence keys are built into one reused
	// buffer; cache hits never copy them.
	var err error
	var keyBuf []byte
	for i, t := range tuples {
		if err = ctx.Err(); err != nil {
			break
		}
		var b *pdb.Block
		if overrides != nil && overrides[i] != nil {
			t, b = overrides[i].Base, overrides[i]
			if t.IsComplete() {
				b = nil
			}
		} else if !t.IsComplete() {
			keyBuf = t.AppendKey(keyBuf[:0])
			next = i + 1
			b, _, err = e.resolve(ctx, t, keyBuf, o, miss)
		}
		if err == nil {
			err = o.put(Item{Index: i, Tuple: t, Block: b})
		}
		if err != nil {
			break
		}
	}
	close(quit)
	wg.Wait()
	return err
}

// safeWarm runs one prefetch item behind a panic boundary, so a worker
// survives a panicking item and moves on to the next. Panics inside the
// single-flight computation itself are already recovered into the claimed
// entry by fill; this boundary catches everything outside it — including
// the derive.prefetch injection point, which fires before the slot is
// claimed, leaving the tuple for the emitter to compute inline (the
// stream stays bit-identical, the pool merely lost a warm-up).
func (e *Engine) safeWarm(t relation.Tuple, key []byte) {
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			e.stats.PanicsRecovered++
			e.mu.Unlock()
		}
	}()
	faultinject.Fire("derive.prefetch")
	e.warm(t, key)
}

// poolSize resolves a per-request pool size: a positive request override
// wins, then the engine default, then GOMAXPROCS. The pool never exceeds
// the number of work items, nor GOMAXPROCS — the workers are pure CPU
// (inference never blocks), so goroutines beyond the processor count only
// add scheduler churn. Pool sizes affect scheduling only, never results,
// so the cap is always safe.
func poolSize(request, engine, items int) int {
	n := engine
	if request > 0 {
		n = request
	}
	p := runtime.GOMAXPROCS(0)
	if n <= 0 || n > p {
		n = p
	}
	if n > items {
		n = items
	}
	return n
}
