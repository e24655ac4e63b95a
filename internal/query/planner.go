// Planner: the first stage of the query pipeline. It compiles one
// evaluation's Plan against a concrete engine and relation — ordering
// predicate evaluation by estimated selectivity, classifying every input
// tuple into a resolution tier, and attaching a sound dissociation bound
// interval to each multi-missing tuple the executor could decide without
// sampling. Planning never runs a Gibbs chain: its only inference cost
// is the per-attribute CPD envelopes behind derive.Engine.BoundCPD,
// whose intervals are memoized in the engine's shared CPD cache.
package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/derive"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// tupleTier is the planner's resolution tier for one input tuple, in
// increasing cost order.
type tupleTier uint8

const (
	// tierSkip: no completion can satisfy the predicates — the tuple
	// contributes exactly 0.
	tierSkip tupleTier = iota
	// tierCertain: a complete tuple satisfying every predicate —
	// probability exactly 1, no inference.
	tierCertain
	// tierVote: a single-missing tuple, read from its voted block (capped
	// like every block on a capped engine). A vote costs no chain and the
	// tuple carries no interval, so it never degrades.
	tierVote
	// tierBound: a multi-missing tuple carrying a non-vacuous
	// dissociation interval; the executor decides it from the interval
	// when the operator's threshold allows, deriving only otherwise.
	tierBound
	// tierDerive: only full block derivation decides the tuple.
	tierDerive
	// tierObserved: a live-dataset tuple with applied evidence. Its
	// conditioned posterior block is already materialized in the snapshot,
	// so its satisfying mass is exact and free — no vote, no bound, no
	// derivation. Observed tuples never consult BoundCPD or the marginal
	// CPD: those are estimators over the prior evidence, and reusing them
	// against conditioned state is exactly the staleness this tier exists
	// to rule out.
	tierObserved
)

// planned is one tuple's plan entry: its tier, plus the bound interval
// for tierBound tuples (vacuous for tierDerive ones; degenerate exact
// [p, p] for tierObserved ones) and the conditioned block for
// tierObserved ones.
type planned struct {
	tier tupleTier
	iv   derive.Interval
	blk  *pdb.Block
}

// PlanInfo is the public summary of one evaluation's plan, surfaced on
// Result.Plan for explain output and serving telemetry.
type PlanInfo struct {
	// PredOrder lists the constrained attribute names in evaluation
	// order, most selective first.
	PredOrder []string
	// Selectivity is the estimated satisfying fraction per PredOrder
	// entry: the satisfying mass under the attribute's evidence-free
	// voted marginal (one vote, memoized in the engine's shared CPD
	// cache), falling back to satisfying-set cardinality over domain
	// cardinality if the vote fails.
	Selectivity []float64
	// Tier counts over the scanned relation. Observed counts live-dataset
	// tuples decided from their conditioned posterior blocks (exact, no
	// inference); always 0 for batch evaluations.
	Refuted, Certain, SingleMissing, Bounded, Derive, Observed int
	// BoundsUsed reports that the operator could exploit dissociation
	// intervals, so the planner asked the engine for them.
	BoundsUsed bool
	// Join summarizes the intensional SPJ layer when the evaluation ran
	// over a compiled join: the join order, conditions, projection, and
	// the safety verdict. Nil for plain single-relation queries.
	Join *JoinPlanInfo
	// Timing holds the measured explain-analyze block — actual per-tier
	// resolution durations next to the predicted tier counts above. Nil
	// unless the evaluation requested timing (Spec.Analyze or a request
	// trace) and actually executed (a plan-only Eval never runs the
	// executor).
	Timing *PlanTiming
	// Adaptive summarizes the adaptive execution layer: traffic on the
	// shared envelope-interval cache and — after execution — the
	// executor's re-plan rounds. Nil when the evaluation never consulted
	// bounds and carried no deadline, and for a projected SPJ, whose
	// distinct-answer evaluator folds no interval.
	Adaptive *AdaptiveInfo
}

// AdaptiveInfo is the adaptive-execution block of one plan summary.
// Everything in it describes scheduling, never answers, and it depends
// only on this engine's state and the query, never on other engines in
// the process.
type AdaptiveInfo struct {
	// EnvelopeHits and EnvelopeMisses count this plan's probes of the
	// engine's shared envelope-interval cache.
	EnvelopeHits, EnvelopeMisses int
	// Replans counts topk re-plan rounds: waves whose sweep cut at least
	// one remaining candidate after fresh resolutions raised the held
	// rank k. Only topk with k > 0 re-plans.
	Replans int
	// ReplanCut lists, per re-plan round, how many candidates the round
	// cut.
	ReplanCut []int
}

// JoinPlanInfo is the SPJ portion of a plan summary: how the joined
// relation was assembled and whether its lineage admits exact
// extensional evaluation.
type JoinPlanInfo struct {
	// Relations lists the input relations in join order, base first.
	Relations []string
	// Conditions renders each equi-join, e.g. "people.city = cities.city",
	// aligned with Relations[1:].
	Conditions []string
	// Projection lists the projected attribute names (distinct-answer
	// mode); empty when the query selects whole tuples.
	Projection []string
	// Safe reports a hierarchical plan: no two non-refuted joined rows
	// share an uncertain base tuple whose missing attributes the query
	// depends on, so per-row lineage is read-once and extensional
	// evaluation is exact.
	Safe bool
	// SharedUncertain counts the base tuples that break the hierarchy:
	// relevantly-uncertain tuples shared by at least two non-refuted
	// joined rows.
	SharedUncertain int
	// Verdict is the one-line human rendering of the safety analysis.
	Verdict string
}

// String renders the plan as the multi-line explain block the mrslquery
// -explain flag prints.
func (p *PlanInfo) String() string {
	var b strings.Builder
	b.WriteString("plan:\n")
	if len(p.PredOrder) > 0 {
		b.WriteString("  predicate order:")
		for i, name := range p.PredOrder {
			fmt.Fprintf(&b, " %s(sel %.2f)", name, p.Selectivity[i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  tiers: %d refuted, %d certain, %d single-missing, %d bounded, %d derive",
		p.Refuted, p.Certain, p.SingleMissing, p.Bounded, p.Derive)
	if p.Observed > 0 {
		fmt.Fprintf(&b, ", %d observed", p.Observed)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  dissociation bounds: %v\n", p.BoundsUsed)
	if j := p.Join; j != nil {
		fmt.Fprintf(&b, "  join order: %s", strings.Join(j.Relations, " ⋈ "))
		if len(j.Conditions) > 0 {
			fmt.Fprintf(&b, " on %s", strings.Join(j.Conditions, ", "))
		}
		b.WriteByte('\n')
		if len(j.Projection) > 0 {
			fmt.Fprintf(&b, "  projection: %s (distinct answers)\n", strings.Join(j.Projection, ", "))
		}
		fmt.Fprintf(&b, "  safety: %s\n", j.Verdict)
	}
	if a := p.Adaptive; a != nil {
		fmt.Fprintf(&b, "  adaptive: envelope cache %d hit / %d miss\n",
			a.EnvelopeHits, a.EnvelopeMisses)
		if a.Replans > 0 {
			fmt.Fprintf(&b, "  replans: %d rounds, cut %v\n", a.Replans, a.ReplanCut)
		}
	}
	if t := p.Timing; t != nil {
		fmt.Fprintf(&b, "  timing: plan %.3fms, wall %.3fms\n", t.PlanMS, t.WallMS)
		for _, tt := range t.Tiers {
			fmt.Fprintf(&b, "    %s: %d tuples, %.3fms\n", tt.Tier, tt.Tuples, tt.DurationMS)
		}
	}
	return b.String()
}

// plan is one evaluation's compiled plan: per-tuple tiers and intervals
// plus the selectivity-ordered predicate list.
type plan struct {
	q *Query
	// acts aligns with the relation's tuples.
	acts []planned
	// order lists the constrained attributes most selective first;
	// satisfies consults it so refutation short-circuits as early as the
	// estimates allow.
	order []int
	info  *PlanInfo
	// scratch is the pooled backing of acts/order, returned by release().
	scratch *planScratch
}

// planScratch is the pooled allocation scratch of one plan: the
// per-tuple tier slice and the small per-plan buffers. newPlan takes one
// from planPool and release() returns it once the evaluation no longer
// touches acts/order. PlanInfo is excluded on purpose — it is freshly
// allocated per plan and escapes on Result.Plan.
type planScratch struct {
	acts       []planned
	order      []int
	sel        []float64
	satBools   [][]bool
	allMissing relation.Tuple
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

// grow returns s resized to n, reallocating only when capacity is short.
// Reused elements keep stale contents; callers overwrite every index.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns the plan's pooled scratch. Callers must be done with
// acts and order; info stays valid forever. Safe to call more than once.
func (p *plan) release() {
	s := p.scratch
	if s == nil {
		return
	}
	p.scratch, p.acts, p.order = nil, nil, nil
	clear(s.acts)     // drop observed-block pointers so the pool doesn't pin them
	clear(s.satBools) // likewise the compiled queries' satisfying sets
	planPool.Put(s)
}

// usesBounds reports whether the operator can turn a [lo, hi] interval
// into a decision: thresholded count and exists compare against MinProb,
// and topk cuts against MinProb or the rank-k probability. Plain
// expected counts, unthresholded exists, and groupby need exact masses,
// so bounding them would be wasted planning work.
func (q *Query) usesBounds() bool {
	if q.boundsOff {
		return false
	}
	switch q.op {
	case Count, Exists:
		return q.minProb > 0
	case TopK:
		return q.k > 0 || q.minProb > 0
	default:
		return false
	}
}

// newPlan compiles the evaluation plan of q over rel on eng. overrides
// (nil for batch evaluations) maps tuple index -> conditioned posterior
// block of a live-dataset snapshot; overridden incomplete tuples are
// classified tierObserved with an exact [p, p] interval, computed by
// summing their satisfying alternatives in block order — the identical
// float operations naive evaluation of the conditioned database
// performs, preserving bit-identity. Canceling ctx aborts planning — the
// dissociation envelopes can cost real votes on a cold cache, so the
// planner is as cancellable as the executor.
func (q *Query) newPlan(ctx context.Context, eng *derive.Engine, rel *relation.Relation, overrides map[int]*pdb.Block) (*plan, error) {
	s := planPool.Get().(*planScratch)
	s.acts = grow(s.acts, len(rel.Tuples))
	p := &plan{q: q, acts: s.acts, scratch: s}
	info := &PlanInfo{BoundsUsed: q.usesBounds()}
	// Under a deadline budget the executor may have to answer derive-tier
	// tuples from bounds instead of chains, so the planner computes the
	// dissociation envelopes even for operators that cannot use them to
	// decide (expected counts, unthresholded exists, groupby). Those
	// intervals ride along on the derive tier — never reclassified to the
	// bound tier, whose threshold decisions would misfire at MinProb 0.
	_, hasDL := ctx.Deadline()

	// Order predicate evaluation by estimated selectivity: the compiled
	// satisfying fraction, sharpened by the attribute's evidence-free
	// voted marginal — one vote against the top of the lattice, computed
	// through (and memoized in) the engine's shared CPD cache, so every
	// plan after the first is served from the same slot. Ordering
	// changes evaluation cost only, never answers — satisfies is a
	// conjunction.
	s.order = grow(s.order, len(q.constrained))
	copy(s.order, q.constrained)
	p.order = s.order
	if len(p.order) > 0 {
		s.sel = grow(s.sel, q.schema.NumAttrs())
		sel := s.sel
		if len(s.allMissing) != q.schema.NumAttrs() {
			s.allMissing = relation.NewTuple(q.schema.NumAttrs())
		}
		for _, a := range p.order {
			set := q.sat[a]
			frac := float64(set.n) / float64(len(set.ok))
			if d, _, err := eng.MarginalCPD(s.allMissing, a); err == nil && len(d) == len(set.ok) {
				var mass float64
				for v, in := range set.ok {
					if in {
						mass += d[v]
					}
				}
				frac = mass
			}
			sel[a] = frac
		}
		sort.SliceStable(p.order, func(i, j int) bool { return sel[p.order[i]] < sel[p.order[j]] })
		for _, a := range p.order {
			info.PredOrder = append(info.PredOrder, q.schema.Attrs[a].Name)
			info.Selectivity = append(info.Selectivity, sel[a])
		}
	}

	// sat in the [][]bool shape BoundCPD consumes, built once per plan.
	// With bounds off (a projected SPJ) nothing folds an interval, not
	// even a deadline fallback, so none is computed.
	wantIV := !q.boundsOff && (info.BoundsUsed || hasDL)
	var satBools [][]bool
	if wantIV {
		s.satBools = grow(s.satBools, q.schema.NumAttrs())
		satBools = s.satBools
		clear(satBools)
		for _, a := range q.constrained {
			satBools[a] = q.sat[a].ok
		}
	}

	// Multi-missing envelopes go through the engine's shared interval
	// cache, whose traffic the adaptive block reports.
	if wantIV {
		info.Adaptive = &AdaptiveInfo{}
	}

	exhausted := false // deadline spent mid-plan: plan on, stop paying for envelopes
	for i, t := range rel.Tuples {
		if err := ctx.Err(); err != nil {
			// A spent deadline budget degrades planning instead of failing
			// it: the remaining tuples are planned without envelope votes
			// (vacuous intervals — still sound), and the executor degrades
			// from there. Plain cancellation still aborts.
			if !hasDL || !errors.Is(err, context.DeadlineExceeded) {
				p.release()
				return nil, err
			}
			exhausted = true
		}
		switch {
		case q.refutes(t):
			p.acts[i] = planned{tier: tierSkip}
			info.Refuted++
		case t.IsComplete():
			p.acts[i] = planned{tier: tierCertain, iv: derive.Interval{Lo: 1, Hi: 1}}
			info.Certain++
		case overrides[i] != nil:
			// A conditioned tuple's posterior is already materialized; its
			// satisfying mass is exact, summed in block-alternative order.
			var mass float64
			for _, a := range overrides[i].Alts {
				if p.satisfies(a.Tuple) {
					mass += a.Prob
				}
			}
			p.acts[i] = planned{tier: tierObserved, iv: derive.Interval{Lo: mass, Hi: mass}, blk: overrides[i]}
			info.Observed++
		case t.NumMissing() == 1:
			p.acts[i] = planned{tier: tierVote}
			info.SingleMissing++
		default:
			iv := derive.VacuousInterval
			if wantIV && !exhausted && t.NumMissing() > 1 {
				var hit bool
				var err error
				iv, hit, err = eng.BoundCPD(t, satBools)
				if err != nil {
					p.release()
					return nil, err
				}
				if hit {
					info.Adaptive.EnvelopeHits++
				} else {
					info.Adaptive.EnvelopeMisses++
				}
			}
			if info.BoundsUsed && !iv.Vacuous() {
				p.acts[i] = planned{tier: tierBound, iv: iv}
				info.Bounded++
			} else {
				// The interval stays attached even when the operator cannot
				// decide from it: it is the executor's degradation fallback.
				p.acts[i] = planned{tier: tierDerive, iv: iv}
				info.Derive++
			}
		}
	}
	p.info = info
	return p, nil
}

// satisfies reports whether the complete tuple u passes every predicate,
// checking the most selective attributes first.
func (p *plan) satisfies(u relation.Tuple) bool {
	for _, a := range p.order {
		if !p.q.sat[a].contains(u[a]) {
			return false
		}
	}
	return true
}
