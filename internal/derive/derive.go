// Package derive implements the long-lived, concurrency-safe derivation
// engine behind the paper's end-to-end pipeline (Section VI): every
// complete tuple of an incomplete relation becomes a certain tuple of the
// output database, every incomplete tuple becomes a block of mutually
// exclusive completions distributed according to the inferred Delta_t.
//
// The engine improves on a naive sequential derivation in four ways:
//
//   - Single-missing voting is sharded across a pool of goroutines that
//     share a synchronized, single-flight memoization cache keyed by the
//     tuple's canonical evidence (relation.Tuple.Key). Distinct incomplete
//     tuples are voted exactly once; duplicates hit the cache.
//   - Multi-missing inference is scheduled per block: each distinct
//     multi-missing tuple is one independent unit of work, prefetched
//     ahead of the emitter through its own single-flight cache, so the
//     first multi-missing block is ready as soon as its own unit has run —
//     not when the whole workload batch has. gibbs.Infer picks the unit's
//     tier: small kernels are solved exactly, as the stationary
//     distribution of the chain's sweep kernel, and the rest run a
//     content-seeded Gibbs chain.
//   - Completed pdb.Blocks are streamed to the caller in input order
//     through a callback or a pluggable Sink, so callers can persist or
//     serve blocks without ever holding the whole database in memory.
//   - Results do not depend on pool sizes: voting is deterministic for
//     every VoteWorkers value, exact solves use no randomness and chains
//     are seeded by tuple content, so every GibbsWorkers value is
//     bit-identical, and emission order is the input order regardless of
//     which goroutine finished first.
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
	// VoteWorkers is the default size of the per-request single-missing
	// voting pool; <= 0 selects GOMAXPROCS. The result does not depend on
	// the pool size.
	VoteWorkers int
	// GibbsWorkers is the default size of the per-request multi-missing
	// pool, which runs both exact solves and chains; <= 0 selects
	// GOMAXPROCS. Each distinct multi-missing tuple is one independent
	// unit — an exact solve with no randomness, or a chain seeded by its
	// content — so the result does not depend on the pool size.
	GibbsWorkers int
	// CacheEntries bounds each of the engine's memoization caches (the
	// single-missing vote cache, the multi-missing joint cache, live
	// datasets' conditioned-block cache, and the shared local-CPD cache)
	// to that many entries, evicted CLOCK-wise. <= 0 leaves the vote,
	// joint and conditioned-block caches unbounded (they hold one entry
	// per distinct damage pattern or observed tuple) and caps the CPD
	// cache at its default (gibbs.DefaultCPDCacheEntries; CPD entries grow
	// with the sampled state space, not the workload, so they are always
	// bounded).
	// Evictions never change emitted streams — every cached value is a
	// deterministic function of the model and its key — they only cost
	// recomputation.
	CacheEntries int
}

// Pools sizes the worker pools of one Stream request. The zero value
// inherits the engine Config's VoteWorkers/GibbsWorkers; positive fields
// override them for this request only. Pool sizes never change the
// emitted stream — only how many goroutines compute it — so per-request
// sharding is always safe.
type Pools struct {
	VoteWorkers  int
	GibbsWorkers int
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

// EmitFunc receives streamed items. Returning an error stops the stream;
// Stream returns that error.
type EmitFunc func(Item) error

// Stats instruments the engine's caches. With the exception of the live
// gauges (Watchers, Datasets), all counters are monotonically
// non-decreasing over the engine's lifetime; concurrent requests update
// them atomically under the engine lock.
type Stats struct {
	// VotesComputed counts distinct single-missing evidence patterns that
	// were actually voted (cache misses).
	VotesComputed int64
	// SingleTuples counts single-missing input tuples served. The
	// difference SingleTuples - VotesComputed is the number of tuples
	// answered purely from the memo cache (duplicates).
	SingleTuples int64
	// GibbsComputed counts distinct multi-missing tuples actually
	// inferred (cache misses), on either tier: solved exactly or sampled
	// by a chain.
	GibbsComputed int64
	// ExactSolved counts the multi-missing tuples of GibbsComputed that
	// were solved exactly, as the stationary distribution of their
	// chain's kernel, instead of sampled (see gibbs.Infer).
	ExactSolved int64
	// MultiTuples counts multi-missing input tuples served.
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
	// Evictions counts entries dropped from the engine's bounded vote,
	// joint and conditioned-block caches (always 0 when
	// Config.CacheEntries <= 0).
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
	// InvalidatedEntries counts conditioned-block cache entries removed
	// for correctness: superseded by a newer observation epoch (eagerly on
	// observe, lazily on a tag-mismatch read) or dropped with their
	// dataset. Disjoint from Evictions.
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
	// QueryBounded counts tuples decided without a block expansion or a
	// Gibbs chain: single-missing tuples answered from the shared CPD
	// cache, and multi-missing tuples decided by a dissociation bound
	// interval.
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
// from the shared memo cache rather than voted afresh. Clamped at 0: the
// prefetch pools run ahead of the emitters, so a snapshot taken
// mid-stream (or after an aborted stream) can have computed more
// patterns than it has served tuples.
func (s Stats) VoteHitRate() float64 {
	return hitRate(s.SingleTuples, s.VotesComputed)
}

// GibbsHitRate returns the fraction of multi-missing input tuples served
// from the shared joint cache rather than sampled afresh, clamped at 0
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
	votes *clockcache.Map[*entry] // single-missing joints by evidence key
	gibbs *clockcache.Map[*entry] // multi-missing joints by evidence key
	// observed caches conditioned posterior blocks of live datasets, keyed
	// "dataset\x00index" and tagged with the block's observation epoch;
	// see dataset.go for the coherence story.
	observed *clockcache.Map[*pdb.Block]
	stats    Stats

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
		votes:    clockcache.New[*entry](cfg.CacheEntries, entryDone),
		gibbs:    clockcache.New[*entry](cfg.CacheEntries, entryDone),
		observed: clockcache.New[*pdb.Block](cfg.CacheEntries, nil),
		datasets: make(map[string]*Dataset),
	}
	// Every chain the engine runs shares the engine-level CPD memo.
	e.cfg.Gibbs.Cache = e.cpd
	return e, nil
}

// Model returns the model the engine serves.
func (e *Engine) Model() *core.Model { return e.model }

// MaxAlternatives returns the engine's block-alternative cap (<= 0 keeps
// every completion). The query evaluator consults it: only uncapped
// blocks equal the marginal CPD, so bound-based pruning is sound only
// when it is <= 0.
func (e *Engine) MaxAlternatives() int { return e.cfg.MaxAlternatives }

// Stats returns a snapshot of the engine's cache instrumentation.
func (e *Engine) Stats() Stats {
	cpd := e.cpd.Stats()
	e.mu.Lock()
	st := e.stats
	st.Evictions = e.votes.Evictions() + e.gibbs.Evictions() + e.observed.Evictions()
	st.InvalidatedEntries = e.observed.Invalidations()
	st.CPDHits = cpd.Hits
	st.CPDMisses = cpd.Misses
	st.CPDEvictions = cpd.Evictions
	e.mu.Unlock()
	e.dsMu.Lock()
	st.Datasets = int64(len(e.datasets))
	e.dsMu.Unlock()
	return st
}

// lookup returns the cache entry for key in m, creating and claiming it if
// absent. claimed is true when the caller must compute the entry and close
// ready. The nilable counters are bumped under the same lock — computed
// on a claim, served once per call, hits once per found entry — so
// resolve paths pay a single lock acquisition. The byte key is copied
// only when a new entry is claimed; the hit path does not allocate.
//
// o is the calling stream (nil outside one). When key is absent and o has
// items to flush, lookup flushes them before it claims, with the lock
// released, and then looks again: a flush is a socket write that blocks
// while the client is not reading, and every request that needs a
// claimed slot waits for its claimer.
func (e *Engine) lookup(m *clockcache.Map[*entry], key []byte, o *out, computed, served, hits *int64) (en *entry, claimed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if faultinject.Enabled() && faultinject.Fire("cache.storm") {
		// Chaos harness: an eviction storm drops every completed entry of
		// the probed cache. In-flight single-flight slots are spared so a
		// claimer's pending write is never orphaned mid-computation; the
		// storm costs recomputation, never changes answers.
		var doomed []string
		m.Range(func(k string, v *entry) bool {
			if entryDone(v) {
				doomed = append(doomed, k)
			}
			return true
		})
		for _, k := range doomed {
			m.Invalidate(k)
		}
	}
	if served != nil {
		*served++
	}
	en, ok := m.Get(key)
	if !ok && o.dirty() {
		e.mu.Unlock()
		o.idle() // recovers its own panics, so the lock is always retaken
		e.mu.Lock()
		en, ok = m.Get(key)
	}
	if ok {
		if hits != nil {
			*hits++
		}
		return en, false
	}
	en = &entry{ready: make(chan struct{})}
	m.Put(key, en)
	if computed != nil {
		*computed++
	}
	return en, true
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
// shared local-CPD cache: the same estimate, from the same cache slot, the
// single-missing derivation path uses. hit reports whether it was served
// from cache. The returned distribution is shared and must not be mutated.
//
// For a single-missing tuple this marginal is exactly the derived block's
// distribution, so query evaluation can decide such tuples without ever
// expanding a block. For multi-missing tuples the voted marginal is a
// different estimator than the Gibbs joint's marginal — an approximation,
// not a bound — so exact evaluation must not prune on it.
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

// voteJoint runs single-attribute ensemble voting (Algorithm 2) for the
// one missing attribute of t and lifts the estimate into a 1-attribute
// joint. It shares the engine's CPD cache with the Gibbs chains: a
// single-missing tuple's evidence state is exactly a chain state with one
// attribute under resampling, so whichever path sees the pattern first
// spares the other the vote.
func (e *Engine) voteJoint(t relation.Tuple) (*dist.Joint, error) {
	faultinject.Fire("derive.vote")
	attr := t.MissingAttrs()[0]
	d, _, err := e.MarginalCPD(t, attr)
	if err != nil {
		return nil, err
	}
	j, err := dist.NewJoint([]int{attr}, []int{e.model.Schema.Attrs[attr].Card()})
	if err != nil {
		return nil, err
	}
	copy(j.P, d)
	return j, nil
}

// chainJoint infers the joint of one distinct multi-missing tuple — the
// per-block unit of multi-missing work — through gibbs.Infer, which
// solves small kernels exactly and runs the content-seeded chain for the
// rest.
func (e *Engine) chainJoint(t relation.Tuple) (*dist.Joint, error) {
	faultinject.Fire("derive.chain")
	j, points, exact, err := gibbs.Infer(e.model, e.cfg.Gibbs, t)
	e.mu.Lock()
	e.stats.PointsSampled += int64(points)
	if err == nil {
		e.stats.GibbsComputed++
		if exact {
			e.stats.ExactSolved++
		}
	}
	e.mu.Unlock()
	return j, err
}

// resolveVote returns the memoized vote joint for t, computing it if this
// caller claims the cache slot and waiting for the in-flight computation
// otherwise (or until ctx is canceled). It is the emitter's fetch path, so
// it counts served tuples. hit reports whether the entry already existed.
// Before it computes or waits it lets o flush what the stream has emitted
// so far (see lookup and waitReady); o is nil outside a stream.
func (e *Engine) resolveVote(ctx context.Context, t relation.Tuple, key []byte, o *out) (b *pdb.Block, hit bool, err error) {
	en, claimed := e.lookup(e.votes, key, o, &e.stats.VotesComputed, &e.stats.SingleTuples, nil)
	if claimed {
		e.fillVote(en, t, key)
	} else if err := waitReady(ctx, en.ready, o); err != nil {
		return nil, true, err
	}
	return en.block, !claimed, en.err
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

// prefetchVote warms the vote cache slot for t without blocking on entries
// another goroutine already claimed.
func (e *Engine) prefetchVote(t relation.Tuple, key []byte) {
	en, claimed := e.lookup(e.votes, key, nil, &e.stats.VotesComputed, nil, nil)
	if claimed {
		e.fillVote(en, t, key)
	}
}

// fillVote computes a claimed vote entry: the 1-attribute joint, expanded
// into its block. A panic during the computation is recovered into
// en.err and the slot is invalidated; the deferred close always runs
// (after the recovery, so waiters never observe a half-written entry).
func (e *Engine) fillVote(en *entry, t relation.Tuple, key []byte) {
	defer close(en.ready)
	defer e.recoverEntry(en, e.votes, key, "vote")
	defer voteSeconds.Since(time.Now())
	var j *dist.Joint
	if j, en.err = e.voteJoint(t); en.err == nil {
		en.block, en.err = e.block(t, j)
	}
}

// recoverEntry is the deferred panic boundary of a single-flight
// computation: it turns a panic into a typed PanicError on the entry
// (visible to every waiter) and invalidates the cache slot so the
// poisoned result is never memoized — the next identical request claims
// a fresh slot and recomputes. Registered after the close defer, so it
// runs first and the entry is complete when ready closes.
func (e *Engine) recoverEntry(en *entry, m *clockcache.Map[*entry], key []byte, op string) {
	r := recover()
	if r == nil {
		return
	}
	en.block = nil
	en.err = &PanicError{Op: op, Value: r, Stack: debug.Stack()}
	e.mu.Lock()
	e.stats.PanicsRecovered++
	m.Invalidate(string(key))
	e.mu.Unlock()
}

// resolveGibbs returns the memoized multi-missing joint for t, sampling
// inline if this caller claims the slot (the emitter steals work the
// prefetch pool has not reached) and waiting otherwise (or until ctx is
// canceled). It is the emitter's fetch path, so it counts served tuples
// and cache hits. o flushes first, as in resolveVote.
func (e *Engine) resolveGibbs(ctx context.Context, t relation.Tuple, key []byte, o *out) (b *pdb.Block, hit bool, err error) {
	en, claimed := e.lookup(e.gibbs, key, o, nil, &e.stats.MultiTuples, &e.stats.GibbsCacheHits)
	if claimed {
		e.fillGibbs(en, t, key)
	} else if err := waitReady(ctx, en.ready, o); err != nil {
		return nil, true, err
	}
	return en.block, !claimed, en.err
}

// resolveTier names the engine path that resolves one incomplete tuple.
// The same classification schedules the prefetch pools, drives both emit
// loops and serves ResolveBlock, so the query executor's tier ordering
// and the streaming path always agree on where a tuple's work happens.
type resolveTier uint8

const (
	// tierComplete: nothing to resolve.
	tierComplete resolveTier = iota
	// tierVote: single-missing, decided by the shared vote path.
	tierVote
	// tierChain: multi-missing — one gibbs.Infer unit per distinct
	// tuple (an exact solve or a content-seeded chain), shardable across
	// pools.
	tierChain
)

// tier classifies t onto its resolution path.
func (e *Engine) tier(t relation.Tuple) resolveTier {
	switch {
	case t.IsComplete():
		return tierComplete
	case t.NumMissing() == 1:
		return tierVote
	default:
		return tierChain
	}
}

// ResolveBlock returns the completion block of one incomplete tuple
// through the engine's caches, exactly as a Stream over a relation
// containing t would emit it: single-missing tuples via the shared vote
// path, multi-missing tuples via their content-seeded chain. hit reports
// whether the answer was served from a cache rather than inferred by this
// call. It is the per-tuple entry point of the query evaluator and of
// dataset snapshots; the returned block is shared and must be treated as
// immutable.
func (e *Engine) ResolveBlock(ctx context.Context, t relation.Tuple) (b *pdb.Block, hit bool, err error) {
	tier := e.tier(t)
	if tier == tierComplete {
		return nil, false, fmt.Errorf("derive: tuple %v is complete", t)
	}
	return e.resolve(ctx, tier, t, t.AppendKey(nil), nil)
}

// resolve serves an incomplete tuple t of the given tier on that tier's
// path. key is t's evidence key; o is the calling stream, nil outside
// one.
func (e *Engine) resolve(ctx context.Context, tier resolveTier, t relation.Tuple, key []byte, o *out) (b *pdb.Block, hit bool, err error) {
	if tier == tierVote {
		return e.resolveVote(ctx, t, key, o)
	}
	return e.resolveGibbs(ctx, t, key, o)
}

// PrefetchBlocks warms the engine's caches for the given incomplete
// tuples across the request's worker pools, in order, until every tuple is
// claimed or ctx is canceled. Pool sizes affect scheduling only — a
// subsequent ResolveBlock serves bit-identical results whether or not the
// prefetch ran. Complete tuples are skipped. It blocks until its workers
// have drained.
func (e *Engine) PrefetchBlocks(ctx context.Context, tuples []relation.Tuple, pools Pools) {
	// quit is never closed here: the dispatchers run to the end of their
	// tuple lists unless ctx cancels them.
	var wg sync.WaitGroup
	e.prefetch(ctx, &wg, make(chan struct{}), tuples, pools)
	wg.Wait()
}

// prefetch starts a pool per resolution path that warms the path's
// tuples in first-appearance order until quit closes or ctx is canceled;
// wg tracks the pools' goroutines. The chain pool starts first, since
// chains are the long pole. Only distinct damage patterns are dispatched
// — duplicates would be single-probe no-ops, but even those probes cost
// a channel handoff and an engine-lock acquisition each.
func (e *Engine) prefetch(ctx context.Context, wg *sync.WaitGroup, quit chan struct{}, tuples []relation.Tuple, pools Pools) {
	var singles, multis []relation.Tuple
	for _, t := range tuples {
		switch e.tier(t) {
		case tierVote:
			singles = append(singles, t)
		case tierChain:
			multis = append(multis, t)
		}
	}
	if len(multis) > 0 {
		multis = distinctTuples(multis)
		e.spawnPool(ctx, wg, quit, poolSize(pools.GibbsWorkers, e.cfg.GibbsWorkers, len(multis)),
			multis, e.prefetchGibbs)
	}
	if len(singles) > 0 {
		singles = distinctTuples(singles)
		e.spawnPool(ctx, wg, quit, poolSize(pools.VoteWorkers, e.cfg.VoteWorkers, len(singles)),
			singles, e.prefetchVote)
	}
}

// prefetchGibbs warms the joint cache slot for t without blocking on
// entries another goroutine already claimed.
func (e *Engine) prefetchGibbs(t relation.Tuple, key []byte) {
	en, claimed := e.lookup(e.gibbs, key, nil, nil, nil, nil)
	if claimed {
		e.fillGibbs(en, t, key)
	}
}

// fillGibbs computes a claimed multi-missing entry: the inferred joint,
// expanded into its block, timed in mrsl_derive_chain_seconds on either
// tier. GibbsComputed is counted by chainJoint on success instead of at
// claim time, so a tuple whose inference failed is not reported as
// computed. Panics recover into en.err like fillVote's.
func (e *Engine) fillGibbs(en *entry, t relation.Tuple, key []byte) {
	defer close(en.ready)
	defer e.recoverEntry(en, e.gibbs, key, "chain")
	defer chainSeconds.Since(time.Now())
	var j *dist.Joint
	if j, en.err = e.chainJoint(t); en.err == nil {
		en.block, en.err = e.block(t, j)
	}
}

// block expands a memoized joint into the completion block of t.
func (e *Engine) block(t relation.Tuple, j *dist.Joint) (*pdb.Block, error) {
	if j == nil {
		return nil, fmt.Errorf("derive: no inferred joint for tuple %v", t)
	}
	return pdb.NewBlock(t, j, e.cfg.MaxAlternatives)
}

// Stream derives the probabilistic database of rel and emits it item by
// item, in input order, with the engine's default pool sizes. See
// StreamContext.
func (e *Engine) Stream(rel *relation.Relation, emit EmitFunc) error {
	return e.StreamContext(context.Background(), rel, Pools{}, emit)
}

// StreamPools is Stream with per-request pool sizes.
func (e *Engine) StreamPools(rel *relation.Relation, pools Pools, emit EmitFunc) error {
	return e.StreamContext(context.Background(), rel, pools, emit)
}

// StreamContext derives the probabilistic database of rel and emits it
// item by item, in input order: complete tuples pass through as certain
// items, incomplete tuples arrive as blocks. Single-missing voting and
// multi-missing sampling run on per-request worker pools concurrently
// with emission; sampling is scheduled per block, so each block becomes
// available as soon as its own chain has run. If emit returns an error
// the stream stops and StreamContext returns that error after draining
// its workers.
//
// Canceling ctx stops the stream: the dispatchers stop scheduling new
// work, the emitter stops waiting for in-flight entries, and
// StreamContext returns ctx.Err() once the pool workers have drained
// their current items. Work already claimed when the cancel lands is
// always completed (and cached) rather than abandoned, so cancellation
// never poisons the shared caches. Overlapping calls from multiple
// goroutines are safe and share the engine's caches.
func (e *Engine) StreamContext(ctx context.Context, rel *relation.Relation, pools Pools, emit EmitFunc) error {
	return e.run(ctx, emit, nil, func(o *out) error { return e.streamRelation(ctx, rel, pools, o) })
}

// out is the consumer end of one emit loop: the caller's emit behind a
// panic boundary, and the sink's optional Flush (nil for a bare EmitFunc
// or a sink without one). A panic in either (a broken Sink
// implementation, an injected fault) becomes the request's *PanicError
// with Op "emit" instead of crashing the process; the engine and its
// caches are unaffected.
type out struct {
	e       *Engine
	emit    EmitFunc
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
	if err = o.emit(it); err != nil {
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

// idle flushes the items emitted since the last flush. The emit loops
// call it just before they wait on, or compute inline, an item whose
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
// last flush, the sink has a Flush, and no flush has failed. It is false
// on a nil out (ResolveBlock).
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

// run is the one wrapper of every stream, relation and snapshot alike:
// it hands loop its out, observes the stream in mrsl_derive_stream_seconds
// and as the request trace's derive.stream span, and counts it in
// Stats.Streams (and Stats.DeadlineMisses when its deadline expired),
// successful or not.
func (e *Engine) run(ctx context.Context, emit EmitFunc, flush func() error, loop func(*out) error) error {
	start := time.Now()
	err := loop(&out{e: e, emit: emit, flush: flush})
	streamSeconds.Since(start)
	obs.TraceFrom(ctx).Since("derive.stream", start)
	e.mu.Lock()
	e.stats.Streams++
	if errors.Is(err, context.DeadlineExceeded) {
		e.stats.DeadlineMisses++
	}
	e.mu.Unlock()
	return err
}

// streamRelation checks rel against the model's schema and streams its
// tuples.
func (e *Engine) streamRelation(ctx context.Context, rel *relation.Relation, pools Pools, o *out) error {
	if rel == nil {
		return fmt.Errorf("derive: nil relation")
	}
	if d := e.model.Schema.Diff(rel.Schema); d != "" {
		return &SchemaMismatchError{Model: e.model.Schema, Data: rel.Schema, Diff: d}
	}
	return e.stream(ctx, rel.Tuples, nil, pools, o)
}

// stream is the emit loop of relation and snapshot streams alike.
// overrides (nil for a relation stream) maps a snapshot's tuple index to
// its conditioned posterior block: such a tuple emits that block, or its
// base as a certain item once evidence has collapsed it, and is neither
// prefetched nor resolved.
func (e *Engine) stream(ctx context.Context, tuples []relation.Tuple, overrides map[int]*pdb.Block, pools Pools, o *out) error {
	// The pools prefetch chains and votes ahead of the emitter, through
	// the same single-flight caches the emitter resolves from. quit stops
	// their dispatchers early when emission fails, and the loop returns
	// only after they have drained.
	work := tuples
	if overrides != nil {
		work = make([]relation.Tuple, 0, len(tuples))
		for i, t := range tuples {
			if overrides[i] == nil {
				work = append(work, t)
			}
		}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	e.prefetch(ctx, &wg, quit, work, pools)

	// Emit in input order. The emitter steals unclaimed work (resolveVote
	// and resolveGibbs compute inline when a pool has not reached the
	// entry yet), so it never idles behind the pools. Evidence keys are
	// built into one reused buffer; cache hits never copy them.
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
		} else if tier := e.tier(t); tier != tierComplete {
			keyBuf = t.AppendKey(keyBuf[:0])
			b, _, err = e.resolve(ctx, tier, t, keyBuf, o)
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

// spawnPool starts a dispatcher plus workers goroutines that prefetch the
// given tuples (in order) through warm, until done, quit closes, or ctx is
// canceled. Each worker reuses one key buffer across its tuples.
func (e *Engine) spawnPool(ctx context.Context, wg *sync.WaitGroup, quit chan struct{}, workers int,
	tuples []relation.Tuple, warm func(relation.Tuple, []byte)) {
	work := make(chan relation.Tuple)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var keyBuf []byte
			for t := range work {
				keyBuf = t.AppendKey(keyBuf[:0])
				e.safeWarm(t, keyBuf, warm)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(work)
		for _, t := range tuples {
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

// safeWarm runs one prefetch item behind a panic boundary, so a worker
// survives a panicking item and moves on to the next. Panics inside the
// single-flight computation itself are already recovered into the claimed
// entry by fillVote/fillGibbs; this boundary catches everything outside
// it — including the derive.prefetch injection point, which fires before
// the slot is claimed, leaving the tuple for the emitter to compute
// inline (the stream stays bit-identical, the pool merely lost a warm-up).
func (e *Engine) safeWarm(t relation.Tuple, key []byte, warm func(relation.Tuple, []byte)) {
	defer func() {
		if r := recover(); r != nil {
			e.mu.Lock()
			e.stats.PanicsRecovered++
			e.mu.Unlock()
		}
	}()
	faultinject.Fire("derive.prefetch")
	warm(t, key)
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

// distinctTuples returns the distinct tuples of ts by evidence key, in
// first-appearance order.
func distinctTuples(ts []relation.Tuple) []relation.Tuple {
	seen := make(map[string]bool, len(ts))
	var out []relation.Tuple
	var keyBuf []byte
	for _, t := range ts {
		keyBuf = t.AppendKey(keyBuf[:0])
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out = append(out, t)
		}
	}
	return out
}

// Derive collects the stream into a materialized pdb.Database: certain
// tuples in input order, blocks in input order.
func (e *Engine) Derive(rel *relation.Relation) (*pdb.Database, error) {
	c := NewCollector(rel.Schema)
	if err := e.StreamTo(rel, c); err != nil {
		return nil, err
	}
	return c.Database(), nil
}
