// Package gibbs implements the paper's multi-attribute inference (Section
// V): ordered Gibbs sampling over the per-attribute MRSLs to estimate the
// joint distribution of several missing values, with three sampling
// strategies — tuple-at-a-time (one chain per incomplete tuple),
// all-at-a-time (one chain over the full space, rejection-filtered per
// tuple), and the workload-driven tuple-DAG optimization (Algorithm 3) that
// shares samples between tuples related by subsumption. It also solves a
// chain's target exactly: Stationary computes the stationary distribution
// of a tuple's sweep kernel, and Infer, the serving engine's estimator,
// uses it for kernels no larger than the chain's draws (exact.go).
package gibbs

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/vote"
)

// DefaultBurnIn is the default number of discarded burn-in sweeps per
// chain. The paper estimates burn-in "using standard techniques"; its
// experiments sweep the recorded sample count while burn-in stays fixed.
const DefaultBurnIn = 100

// Config controls a sampling run.
type Config struct {
	// BurnIn is the number of initial sweeps discarded per chain (B in
	// Algorithm 3); <= 0 selects DefaultBurnIn.
	BurnIn int
	// Samples is the number of recorded points per tuple (N in
	// Algorithm 3). Must be positive.
	Samples int
	// Method is the voting method used to form each local CPD estimate.
	Method vote.Method
	// Seed seeds the sampler's deterministic RNG.
	Seed int64
	// Cache, when non-nil, is a shared memo of local CPD estimates used in
	// place of the sampler's private map, so concurrent chains (and the
	// single-missing vote path) reuse each other's work. Local CPDs are
	// value-deterministic, so sharing — and eviction from a bounded cache —
	// never changes sampler output.
	Cache *CPDCache
}

func (c Config) burnIn() int {
	if c.BurnIn <= 0 {
		return DefaultBurnIn
	}
	return c.BurnIn
}

// Validate reports a configuration no chain can run: Samples must be
// positive.
func (c Config) Validate() error {
	if c.Samples <= 0 {
		return fmt.Errorf("gibbs: Samples must be positive, got %d", c.Samples)
	}
	return nil
}

// Sampler runs ordered Gibbs chains over an MRSL model. It memoizes local
// CPD estimates across chains — the "caching of partial computations" the
// paper pairs with holistic workload inference — so repeated visits to the
// same evidence state cost one map probe. With Config.Cache set, the memo
// is the shared engine-level CPDCache instead of a sampler-private map;
// either way the cache-hit path performs no allocation (the key is built
// into a reused buffer and probed without a string copy).
type Sampler struct {
	model *core.Model
	cfg   Config
	rng   *rand.Rand

	// local is the sampler-private memo of a sampler without a shared
	// cfg.Cache, keyed by AppendCPDKey bytes (method + attribute +
	// canonical evidence assignment) and made on its first miss.
	local map[string]dist.Dist
	// keyBuf is the reused CPD key scratch buffer.
	keyBuf []byte
	// scratch backs the allocation-lean voting path on cache misses.
	scratch *vote.Scratch

	// PointsSampled counts every Gibbs draw, including burn-in — the
	// "sample size" axis of Fig. 11.
	PointsSampled int
	// CacheHits and CacheMisses instrument the private memo's probes; a
	// shared Config.Cache counts its own (CPDCache.Stats).
	CacheHits, CacheMisses int
}

// New returns a sampler over the model.
func New(model *core.Model, cfg Config) (*Sampler, error) {
	if model == nil {
		return nil, fmt.Errorf("gibbs: nil model")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sampler{
		model:   model,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		scratch: new(vote.Scratch),
	}, nil
}

// localCPD estimates P(attr | state - attr) by voting over the MRSL for
// attr, with memoization keyed by the evidence assignment. The estimate is
// a pure function of the model and the evidence, so the memo — private or
// shared, bounded or not — never changes what a chain samples.
func (s *Sampler) localCPD(state relation.Tuple, attr int) (dist.Dist, error) {
	saved := state[attr]
	state[attr] = relation.Missing
	s.keyBuf = AppendCPDKey(s.keyBuf[:0], attr, s.cfg.Method, state)
	if s.cfg.Cache != nil {
		d, err := sharedCPD(s.model, s.cfg, state, attr, s.keyBuf, s.scratch)
		state[attr] = saved
		return d, err
	}
	if d, ok := s.local[string(s.keyBuf)]; ok {
		state[attr] = saved
		s.CacheHits++
		return d, nil
	}
	s.CacheMisses++
	d, err := vote.InferScratch(s.model, state, attr, s.cfg.Method, s.scratch)
	state[attr] = saved
	if err != nil {
		return nil, err
	}
	if s.local == nil {
		s.local = make(map[string]dist.Dist)
	}
	s.local[string(s.keyBuf)] = d
	return d, nil
}

// chain is one ordered-Gibbs chain for an incomplete tuple.
type chain struct {
	tuple   relation.Tuple // the incomplete tuple (evidence fixed)
	missing []int          // attributes being resampled
	state   relation.Tuple // current full assignment
}

// newChain initializes a chain with a uniformly random assignment of the
// missing attributes ("start with a valid random assignment").
func (s *Sampler) newChain(t relation.Tuple) (*chain, error) {
	missing := t.MissingAttrs()
	if len(missing) == 0 {
		return nil, fmt.Errorf("gibbs: tuple %v has no missing attributes", t)
	}
	state := t.Clone()
	for _, a := range missing {
		state[a] = s.rng.Intn(s.model.Schema.Attrs[a].Card())
	}
	return &chain{tuple: t, missing: missing, state: state}, nil
}

// sweep resamples every missing attribute once in order, yielding the next
// point of the chain. It counts as one sampled point.
func (s *Sampler) sweep(c *chain) error {
	for _, a := range c.missing {
		cpd, err := s.localCPD(c.state, a)
		if err != nil {
			return err
		}
		c.state[a] = cpd.Sample(s.rng.Float64())
	}
	s.PointsSampled++
	return nil
}

// InferTuple estimates the joint distribution over the missing attributes
// of t with a dedicated chain: BurnIn discarded sweeps, then Samples
// recorded sweeps. The result is smoothed to a positive distribution.
func (s *Sampler) InferTuple(t relation.Tuple) (*dist.Joint, error) {
	acc, err := s.newAccumulator(t)
	if err != nil {
		return nil, err
	}
	c, err := s.newChain(t)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.cfg.burnIn(); i++ {
		if err := s.sweep(c); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.cfg.Samples; i++ {
		if err := s.sweep(c); err != nil {
			return nil, err
		}
		acc.record(c.state)
	}
	return acc.finish(), nil
}

// accumulator tallies sampled combinations of a tuple's missing attributes.
type accumulator struct {
	joint   *dist.Joint
	missing []int
	vals    []int
	n       int
}

func (s *Sampler) newAccumulator(t relation.Tuple) (*accumulator, error) {
	missing := t.MissingAttrs()
	if len(missing) == 0 {
		return nil, fmt.Errorf("gibbs: tuple %v has no missing attributes", t)
	}
	cards := make([]int, len(missing))
	for i, a := range missing {
		cards[i] = s.model.Schema.Attrs[a].Card()
	}
	j, err := dist.NewJoint(missing, cards)
	if err != nil {
		return nil, err
	}
	return &accumulator{joint: j, missing: missing, vals: make([]int, len(missing))}, nil
}

// record tallies the combination assigned to the missing attributes in a
// full state.
func (a *accumulator) record(state relation.Tuple) {
	for i, attr := range a.missing {
		a.vals[i] = state[attr]
	}
	a.joint.P[a.joint.Index(a.vals)]++
	a.n++
}

// finish normalizes and smooths the tally into the estimate Delta_t.
func (a *accumulator) finish() *dist.Joint {
	return a.joint.Normalize().Smooth(dist.SmoothFloor)
}

// Result is the outcome of workload inference: one estimated joint
// distribution per distinct incomplete tuple, aligned by index.
type Result struct {
	// Tuples are the distinct incomplete tuples, in first-appearance order.
	Tuples []relation.Tuple
	// Dists[i] is the estimate of Delta for Tuples[i].
	Dists []*dist.Joint
	// PointsSampled is the number of Gibbs draws (including burn-in) the
	// run consumed.
	PointsSampled int
}

// TupleAtATime runs an independent chain for every distinct tuple of the
// workload — the baseline of Fig. 11.
func (s *Sampler) TupleAtATime(workload []relation.Tuple) (*Result, error) {
	distinct, err := distinctIncomplete(workload)
	if err != nil {
		return nil, err
	}
	before := s.PointsSampled
	res := &Result{Tuples: distinct, Dists: make([]*dist.Joint, len(distinct))}
	for i, t := range distinct {
		j, err := s.InferTuple(t)
		if err != nil {
			return nil, err
		}
		res.Dists[i] = j
	}
	res.PointsSampled = s.PointsSampled - before
	return res, nil
}

// distinctIncomplete deduplicates a workload, preserving first-appearance
// order, and rejects complete tuples.
func distinctIncomplete(workload []relation.Tuple) ([]relation.Tuple, error) {
	if len(workload) == 0 {
		return nil, fmt.Errorf("gibbs: empty workload")
	}
	seen := make(map[string]bool, len(workload))
	var out []relation.Tuple
	for _, t := range workload {
		if t.IsComplete() {
			return nil, fmt.Errorf("gibbs: workload contains complete tuple %v", t)
		}
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	return out, nil
}
