package derive

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/relation"
)

// This file implements the engine's dissociation-style bound engine for
// multi-missing tuples: sound [lo, hi] probability intervals computed
// from per-attribute conditional-CPD envelopes, without running a Gibbs
// chain. The query planner (internal/query) uses the intervals to decide
// tuples — counted in or out of a thresholded count, folded into an
// exists lower bound, excluded from topk — so selective queries skip
// full derivation for most multi-missing tuples.
//
// Soundness argument. A multi-missing block comes from one of two tiers
// (gibbs.Infer), and both draw each missing attribute a from the same
// finitely many local CPDs, each conditioned on some assignment of the
// other missing attributes — exactly the family the envelope enumerates.
//
//   - Exact tier. The block is the stationary distribution of the
//     chain's sweep kernel. Its marginal of a is the distribution right
//     after a is resampled (later steps of the sweep do not touch a), a
//     mixture of a's CPDs, so every value's mass lies inside the
//     envelope with no slack at all.
//   - Chain tier. Every recorded sweep draws a from one of those CPDs,
//     whatever state the chain is in (burn-in, mixing, or converged; the
//     argument needs no stationarity). So the conditional probability
//     that a recorded sweep satisfies attribute a is within the envelope,
//     and the per-attribute empirical frequencies concentrate around
//     means inside it (Azuma-Hoeffding over the chain's conditional
//     draws). The concentration margin boundSlack covers this tier only.
//
// The interval combines the per-attribute envelopes with Frechet bounds
// — which hold for any dependence structure — and widens them by
// boundSlack plus the exact worst-case shift of the final smoothing
// step, so a chain-tier block's mass escapes the interval only with
// negligible probability (< 1e-9 per tuple at the default sample counts)
// and an exact-tier block's never does. The envelope tests check the
// exact tier against the envelope widened by the smoothing margin alone;
// the query layer's property tests assert containment against the
// derive-everything oracle across worker counts and cache bounds.

// Interval is a closed probability interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// VacuousInterval is the no-information bound.
var VacuousInterval = Interval{Lo: 0, Hi: 1}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Vacuous reports whether the interval carries no information.
func (iv Interval) Vacuous() bool { return iv.Lo <= 0 && iv.Hi >= 1 }

// maxBoundStates caps the number of other-attribute assignments a single
// envelope enumerates. Beyond it BoundCPD degrades to the vacuous
// interval instead of paying an exponential enumeration: each assignment
// costs one CPD-cache probe (and a vote on a cold miss), so the cap also
// bounds the planner's worst-case planning cost per tuple.
const maxBoundStates = 4096

// boundSlack is the concentration margin added to each side of a bound
// interval: sqrt(12.5/n) for n recorded sweeps (New rejects n <= 0),
// which sits beyond five standard deviations of a Bernoulli frequency
// over n draws for every success probability, so a realized chain
// estimate escapes the widened interval only with negligible
// probability. Fewer samples mean looser (but still sound) bounds; below
// 13 samples the margin reaches 1 and BoundCPD stays vacuous.
func boundSlack(samples int) float64 {
	return math.Sqrt(12.5 / float64(samples))
}

// boundEnvelope returns, for missing attribute attr of multi-missing
// tuple t, per-value envelopes lo[v] <= P(attr = v | assignment) <=
// hi[v] over every assignment of t's other missing attributes — exactly
// the family of local CPDs a Gibbs chain for t can ever draw attr from,
// enumerated by gibbs.EachCPD under the Gibbs local-CPD method through
// the engine's shared CPD cache, in the slots the chains and exact solves
// use. The envelope is not memoized, since BoundCPD's interval cache
// answers every repeat first. A nil result (with nil error) means the
// enumeration would exceed maxBoundStates.
func (e *Engine) boundEnvelope(t relation.Tuple, attr int) (lo, hi dist.Dist, err error) {
	states := 1
	for _, a := range t.MissingAttrs() {
		if a == attr {
			continue
		}
		c := e.model.Schema.Attrs[a].Card()
		if states > maxBoundStates/c {
			return nil, nil, nil
		}
		states *= c
	}
	defer boundSeconds.Since(time.Now())

	card := e.model.Schema.Attrs[attr].Card()
	lo, hi = make(dist.Dist, card), make(dist.Dist, card)
	for v := range lo {
		lo[v] = 1
	}
	err = gibbs.EachCPD(e.model, e.cfg.Gibbs, t, attr, func(_ int, d dist.Dist) {
		for v, p := range d {
			lo[v] = math.Min(lo[v], p)
			hi[v] = math.Max(hi[v], p)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return lo, hi, nil
}

// BoundCPD computes a sound dissociation-style probability interval for
// the event that every missing attribute of multi-missing tuple t
// completes into its satisfying set: sat[a], when non-nil, lists per
// value code of attribute a whether it satisfies the query's predicates
// on a (nil means the attribute is unconstrained). The interval contains
// the satisfying mass of the block full derivation would produce for t,
// so a caller may decide t against a probability threshold — counting it
// in when Lo reaches the threshold, out when Hi stays below — without
// ever scheduling a chain; see the soundness argument at the top of this
// file.
//
// Intervals are memoized in the engine's sharded CLOCK CPD cache under a
// content key (appendIntervalKey), so concurrent and successive queries
// whose predicates induce the same satisfying sets on the same evidence
// pattern share one interval instead of re-enumerating its envelopes.
// hit reports a cache hit; Stats.EnvelopeHits and Stats.EnvelopeMisses
// count the probes. A cached interval is a pure function of (model,
// config, tuple, satisfying sets), so a hit is bit-identical to
// recomputation and eviction only costs re-enumeration.
//
// The interval degrades to the vacuous [0, 1] — never an error —
// whenever bounding is not sound or not affordable: on an engine capping
// block alternatives (the cap renormalizes the block) or recording too
// few samples for the concentration margin to stay below 1, where it is
// neither cached nor counted, and when an envelope would enumerate more
// than maxBoundStates assignments.
func (e *Engine) BoundCPD(t relation.Tuple, sat [][]bool) (iv Interval, hit bool, err error) {
	if t.NumMissing() < 2 {
		return VacuousInterval, false, fmt.Errorf("derive: BoundCPD needs a multi-missing tuple, got %v", t)
	}
	if e.cfg.MaxAlternatives > 0 || boundSlack(e.cfg.Gibbs.Samples) >= 1 {
		return VacuousInterval, false, nil
	}
	buf := intervalKeyPool.Get().(*[]byte)
	key, err := e.appendIntervalKey((*buf)[:0], t, sat)
	*buf = key
	defer intervalKeyPool.Put(buf)
	if err != nil {
		return VacuousInterval, false, err
	}
	if v, ok := e.cpd.Get(key); ok && len(v) == 2 {
		e.mu.Lock()
		e.stats.EnvelopeHits++
		e.mu.Unlock()
		return Interval{Lo: v[0], Hi: v[1]}, true, nil
	}
	e.mu.Lock()
	e.stats.EnvelopeMisses++
	e.mu.Unlock()
	iv, err = e.boundCPD(t, sat)
	if err != nil {
		return iv, false, err
	}
	e.cpd.Put(key, dist.Dist{iv.Lo, iv.Hi})
	return iv, false, nil
}

// boundCPD is BoundCPD's uncached computation: per-attribute
// conditional-CPD envelopes combined with Frechet bounds and widened by
// the concentration and smoothing margins.
func (e *Engine) boundCPD(t relation.Tuple, sat [][]bool) (Interval, error) {
	eps := boundSlack(e.cfg.Gibbs.Samples)

	// The final estimate is Normalize().Smooth(SmoothFloor): smoothing
	// shifts any outcome set's mass by at most jointSize*SmoothFloor
	// (raised floors in the numerator, a denominator within
	// [1, 1+jointSize*SmoothFloor]); the extra 1e-9 absorbs the float
	// summation-order slop of the block fold.
	jointSize := 1.0
	for _, a := range t.MissingAttrs() {
		jointSize *= float64(e.model.Schema.Attrs[a].Card())
	}
	smooth := jointSize*dist.SmoothFloor + 1e-9

	lo, hi := 1.0, 1.0
	constrained := 0
	for _, a := range t.MissingAttrs() {
		set := sat[a]
		if set == nil || full(set) {
			continue // unconstrained, or satisfied by the whole domain: mass exactly 1
		}
		envLo, envHi, err := e.boundEnvelope(t, a)
		if err != nil {
			return VacuousInterval, err
		}
		if envLo == nil {
			return VacuousInterval, nil // enumeration too large
		}
		var inLo, inHi, outLo, outHi float64
		for v, ok := range set {
			if ok {
				inLo += envLo[v]
				inHi += envHi[v]
			} else {
				outLo += envLo[v]
				outHi += envHi[v]
			}
		}
		// Each conditional CPD is normalized, so the set mass is bounded
		// both directly and through its complement; take the tighter side.
		sLo := clamp01(math.Max(inLo, 1-outHi))
		sHi := clamp01(math.Min(inHi, 1-outLo))
		// Frechet: the conjunction loses at most each attribute's miss
		// mass (lower), and cannot beat its weakest attribute (upper).
		lo -= 1 - (sLo - eps)
		hi = math.Min(hi, sHi+eps)
		constrained++
	}
	if constrained == 0 {
		// No constrained missing attribute: the block's whole mass
		// satisfies, which is 1 up to smoothing and float slop.
		return Interval{Lo: clamp01(1 - smooth), Hi: probCeiling}, nil
	}
	return Interval{Lo: clamp01(lo - smooth), Hi: math.Min(hi+smooth, probCeiling)}, nil
}

// full reports whether a satisfying set admits every value.
func full(set []bool) bool {
	for _, ok := range set {
		if !ok {
			return false
		}
	}
	return true
}

// probCeiling saturates upper bounds just above 1: a block's
// float-summed satisfying mass can exceed 1 by accumulation slop, so an
// upper bound clamped to exactly 1 would not contain it.
const probCeiling = 1 + 1e-9

func clamp01(x float64) float64 { return math.Min(1, math.Max(0, x)) }

// appendIntervalKey builds the CPD-cache key of one memoized interval:
// the 0xFE marker (disjoint from ordinary CPD entries, whose first byte
// is a small voting-method choice), t's canonical evidence key, the
// uvarint len(t), then — for each constrained missing attribute, in
// attribute order — the attribute index and its satisfying set packed
// as a bitmask. Attributes whose set is nil or covers the whole domain
// are omitted, exactly mirroring which attributes boundCPD folds, so
// queries that constrain the same attributes the same way share one
// entry even when their untouched predicates differ. The encoding is
// injective: the evidence key is a run of (index, value) varint pairs
// with no terminator of its own, so len(t), which no attribute index
// equals, closes it; mask lengths are fixed by each attribute's
// cardinality, which is why a set of any other length is rejected; and
// attribute indices are single varints between masks.
func (e *Engine) appendIntervalKey(dst []byte, t relation.Tuple, sat [][]bool) ([]byte, error) {
	dst = append(dst, 0xFE)
	dst = t.AppendKey(dst)
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for a, v := range t {
		if v != relation.Missing || sat[a] == nil {
			continue
		}
		if card := e.model.Schema.Attrs[a].Card(); len(sat[a]) != card {
			return dst, fmt.Errorf("derive: BoundCPD satisfying set for attribute %d has %d values, want %d",
				a, len(sat[a]), card)
		}
		if full(sat[a]) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(a))
		var b byte
		for v, ok := range sat[a] {
			if ok {
				b |= 1 << (uint(v) % 8)
			}
			if uint(v)%8 == 7 {
				dst = append(dst, b)
				b = 0
			}
		}
		if len(sat[a])%8 != 0 {
			dst = append(dst, b)
		}
	}
	return dst, nil
}

// intervalKeyPool recycles interval-cache key buffers across BoundCPD
// calls, so the steady-state plan path probes the shared cache without
// allocating.
var intervalKeyPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}
