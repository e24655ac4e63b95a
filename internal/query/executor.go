// Executor: the second stage of the query pipeline. It consumes the
// planner's tiers in increasing cost order — evidence-decided tuples for
// free, single-missing tuples from the shared CPD cache, bound-tier
// tuples from their dissociation intervals, and only the remainder
// through full block derivation — while keeping every answer
// bit-identical to deriving the whole relation and evaluating the stream
// naively:
//
//   - Thresholded count decides a tuple in when its interval's lower
//     bound reaches MinProb and out when the upper bound stays below —
//     both imply the oracle's comparison — and derives only the tuples
//     whose interval straddles the threshold.
//   - Thresholded exists first folds a derivation-free lower bound over
//     the scan (exact probabilities for cheap tiers, interval lower
//     bounds for multi-missing tuples); crossing the threshold there
//     answers yes without sampling anything, and only a non-crossing
//     falls back to the exact sequential scan.
//   - TopK resolves the cheap tiers first, then visits the remaining
//     candidates in decreasing upper-bound order: once rank k is held at
//     a probability no candidate's upper bound can beat, everything left
//     is skipped. Every satisfying completion of a skipped tuple has
//     probability at most the tuple's upper bound, which the insertion
//     order (probability desc, input index asc, block order) would
//     reject anyway, so the cut is exact.
//   - Expected count, unthresholded exists, and groupby need exact
//     masses for every open tuple; they scan fully with a prefetched
//     worklist, as before.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/derive"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// ProgressFunc observes an evaluation in flight: the executor calls it
// after each resolved uncertain tuple of a TopK or GroupBy evaluation
// (other operators fold scalars and report nothing incremental). The
// *Result is the live, partially filled result — read it synchronously,
// do not retain it. Returning an error aborts the evaluation with that
// error.
type ProgressFunc func(*Result) error

// Eval evaluates q over rel through eng with the engine's default pool
// sizes. See EvalPools.
func Eval(ctx context.Context, eng *derive.Engine, rel *relation.Relation, q *Query) (*Result, error) {
	return EvalPools(ctx, eng, rel, q, derive.Pools{})
}

// EvalPools evaluates the compiled query over rel, extensionally, on top
// of the engine's shared caches, through the plan/executor pipeline:
// a planner orders predicate evaluation by estimated selectivity and
// classifies every tuple into a resolution tier (attaching sound
// dissociation bound intervals to multi-missing tuples — see
// derive.Engine.BoundCPD), and the executor consumes the tiers in
// increasing cost order. Every answer is bit-identical to deriving the
// full probabilistic database through the same engine and evaluating
// naively over the stream, for every worker count — yet selective
// queries derive only the tuples whose bounds leave the answer open.
//
// The bit-identity contract holds on chains-mode engines (GibbsWorkers >
// 0), whose multi-missing estimates are content-seeded per tuple. On a
// DAG-mode engine the evaluator resolves each multi-missing tuple as a
// single-tuple DAG batch, while full derivation samples the workload
// holistically — the DAG estimator is workload-dependent by
// construction, the same caveat derivation itself documents — so
// DAG-mode answers match the oracle only for tuples already in the
// joint cache (and dissociation bounds stay disabled there).
//
// Pool sizes affect prefetch scheduling only, never the answer.
// Canceling ctx aborts evaluation with ctx.Err(). On success the
// evaluation's counters are folded into the engine's stats (EngineStats'
// Query* fields) and the compiled plan summary is attached to
// Result.Plan.
func EvalPools(ctx context.Context, eng *derive.Engine, rel *relation.Relation, q *Query, pools derive.Pools) (*Result, error) {
	return EvalPoolsProgress(ctx, eng, rel, q, pools, nil)
}

// EvalPoolsProgress is EvalPools with a progress observer for streaming
// consumers (nil disables it); see ProgressFunc.
func EvalPoolsProgress(ctx context.Context, eng *derive.Engine, rel *relation.Relation, q *Query,
	pools derive.Pools, progress ProgressFunc) (*Result, error) {
	return evalOverrides(ctx, eng, rel, nil, q, pools, progress)
}

// EvalSnapshot evaluates q over a live dataset snapshot
// (derive.Dataset.Snapshot): the snapshot's effective tuples are scanned
// like any relation, except that tuples with applied evidence resolve
// from their conditioned posterior blocks — exactly, for free, and
// without touching the engine's estimators. The answer is bit-identical
// to a fresh engine deriving the conditioned database and evaluating
// naively (the conditioned blocks are deterministic replays, and their
// satisfying mass folds in block order like every other tier's).
func EvalSnapshot(ctx context.Context, eng *derive.Engine, snap *derive.DatasetSnapshot, q *Query,
	pools derive.Pools, progress ProgressFunc) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("query: nil snapshot")
	}
	return evalOverrides(ctx, eng, snap.Rel, snap.Overrides, q, pools, progress)
}

func evalOverrides(ctx context.Context, eng *derive.Engine, rel *relation.Relation, overrides map[int]*pdb.Block,
	q *Query, pools derive.Pools, progress ProgressFunc) (*Result, error) {
	wallStart := time.Now()
	if err := validate(eng, rel, q); err != nil {
		return nil, err
	}
	pl, err := q.newPlan(ctx, eng, rel, overrides)
	if err != nil {
		return nil, err
	}
	planDur := time.Since(wallStart)
	planSeconds.Observe(planDur)
	ex := newExecutor(ctx, q, eng, rel, pl, pools, progress)
	ex.tm.start = wallStart
	ex.tm.planNS = planDur.Nanoseconds()
	res, err := ex.dispatch(ctx)
	if err != nil {
		pl.release()
		return nil, err
	}
	res = ex.finish(res, false)
	pl.release()
	return res, nil
}

// dispatch runs the operator's evaluator over the compiled plan.
func (ex *executor) dispatch(ctx context.Context) (*Result, error) {
	switch ex.q.op {
	case Count:
		return ex.evalCount(ctx)
	case Exists:
		return ex.evalExists(ctx)
	case TopK:
		return ex.evalTopK(ctx)
	case GroupBy:
		return ex.evalGroupBy(ctx)
	default:
		return nil, fmt.Errorf("query: unknown operation %v", ex.q.op)
	}
}

// finish attaches the plan summary, closes the counter partition, and
// folds the evaluation into the engine's stats. When the evaluation
// requested timing, the measured per-tier durations land on
// Plan.Timing and mirror into the request's trace.
func (ex *executor) finish(res *Result, dissociated bool) *Result {
	wall := time.Since(ex.tm.start)
	execSeconds.Observe(wall)
	if t := ex.tm.build(wall); t != nil {
		ex.plan.info.Timing = t
		t.trace(ex.tr)
	}
	res.Plan = ex.plan.info
	res.Dissociated = dissociated
	res.Degraded = ex.degraded
	res.DegradedTuples = ex.degTuples
	c := &res.Counters
	c.Scanned = int64(len(ex.rel.Tuples))
	c.Pruned = c.Scanned - c.Bounded - c.Derived
	var replans int64
	if a := ex.plan.info.Adaptive; a != nil {
		replans = int64(a.Replans)
	}
	ex.eng.RecordQuery(derive.QueryRecord{
		Tuples: c.Scanned, Pruned: c.Pruned, Bounded: c.Bounded, Derived: c.Derived,
		BoundRefutes: c.BoundRefutes, BoundWidth: c.BoundWidth, Dissociated: dissociated,
		Degraded: ex.degraded, Replans: replans,
	})
	return res
}

// validate rejects nil arguments and schema mismatches before any
// planning or inference runs; Plan and the Eval entry points share it.
func validate(eng *derive.Engine, rel *relation.Relation, q *Query) error {
	if eng == nil || rel == nil || q == nil {
		return fmt.Errorf("query: nil engine, relation, or query")
	}
	if d := eng.Model().Schema.Diff(rel.Schema); d != "" {
		return &derive.SchemaMismatchError{Model: eng.Model().Schema, Data: rel.Schema, Diff: d}
	}
	if d := eng.Model().Schema.Diff(q.schema); d != "" {
		return fmt.Errorf("query: compiled against a different schema: %s", d)
	}
	return nil
}

// executor runs one evaluation over a compiled plan.
type executor struct {
	q        *Query
	eng      *derive.Engine
	rel      *relation.Relation
	plan     *plan
	pools    derive.Pools
	progress ProgressFunc

	// Deadline budget (fail-soft degradation). When the evaluation context
	// carries a deadline, the executor watches the remaining budget and —
	// once it dips under the safety margin — answers the remaining
	// expensive tuples from their planned dissociation intervals instead
	// of deriving them, so the request returns sound bounds instead of a
	// context error. Without a deadline none of this engages and every
	// answer stays bit-identical to the oracle.
	deadline  time.Time
	margin    time.Duration
	hasDL     bool
	exhausted bool // sticky: once the budget is spent, stay degraded
	degraded  bool
	degTuples int64

	// Explain-analyze timing accumulator and the request's span recorder
	// (nil when untraced). See timing.go.
	tm execTiming
	tr *obs.Trace
}

// newExecutor builds the executor for one evaluation, capturing the
// context's deadline budget. The safety margin is an eighth of the
// remaining budget clamped to [2ms, 500ms]: wide enough to fold the
// remaining scan from intervals before the context actually expires.
func newExecutor(ctx context.Context, q *Query, eng *derive.Engine, rel *relation.Relation,
	pl *plan, pools derive.Pools, progress ProgressFunc) *executor {
	ex := &executor{q: q, eng: eng, rel: rel, plan: pl, pools: pools, progress: progress}
	ex.tr = obs.TraceFrom(ctx)
	ex.tm.enabled = q.analyze || ex.tr != nil
	if dl, ok := ctx.Deadline(); ok {
		ex.hasDL = true
		ex.deadline = dl
		m := time.Until(dl) / 8
		if m < 2*time.Millisecond {
			m = 2 * time.Millisecond
		}
		if m > 500*time.Millisecond {
			m = 500 * time.Millisecond
		}
		ex.margin = m
	}
	return ex
}

// budgetExhausted reports (stickily) that the deadline budget has dipped
// under the safety margin, so expensive resolutions must stop.
func (ex *executor) budgetExhausted() bool {
	if !ex.hasDL || ex.exhausted {
		return ex.exhausted
	}
	if time.Until(ex.deadline) <= ex.margin {
		ex.exhausted = true
	}
	return ex.exhausted
}

// scanErr is the in-loop cancellation check: a plain cancellation aborts
// the scan, but a spent deadline budget does not — the operators degrade
// to bounds instead of failing.
func (ex *executor) scanErr(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if ex.hasDL && errors.Is(err, context.DeadlineExceeded) {
		ex.exhausted = true
		return nil
	}
	return err
}

// degrade accounts one tuple answered from its interval because the
// budget ran out. Degraded tuples count as Bounded — they were decided by
// their bound, just not by choice — keeping Scanned = Pruned + Bounded +
// Derived intact.
func (ex *executor) degrade(c *Counters, iv derive.Interval) {
	ex.degraded = true
	ex.degTuples++
	c.Bounded++
	c.BoundWidth += iv.Width()
}

// expensiveTier reports a tier whose exact resolution runs block
// derivation (and so can be refused or interrupted by the budget). The
// cheap tiers — skip, certain, observed, vote — stay exact even after
// exhaustion: they cost no context-bound inference.
func expensiveTier(t tupleTier) bool { return t == tierBound || t == tierDerive }

// probOrDegrade resolves planned tuple i exactly unless the deadline
// budget is spent, in which case an expensive tuple is answered from its
// planned interval: the bool result reports that degradation, and the
// caller folds act.iv instead of a point mass. An in-flight derivation
// killed by the deadline is converted the same way (its derive accounting
// is undone first).
func (ex *executor) probOrDegrade(ctx context.Context, i int, c *Counters) (float64, bool, error) {
	act := ex.plan.acts[i]
	if expensiveTier(act.tier) && ex.budgetExhausted() {
		ex.degrade(c, act.iv)
		return 0, true, nil
	}
	p, err := ex.exactProb(ctx, i, c)
	if err != nil && expensiveTier(act.tier) && ex.hasDL && errors.Is(err, context.DeadlineExceeded) {
		c.Derived--
		c.BoundWidth -= act.iv.Width()
		ex.exhausted = true
		ex.degrade(c, act.iv)
		return 0, true, nil
	}
	return p, false, err
}

// clamp1 caps an interval's upper side at 1: the dissociation envelopes
// carry a float-margin ceiling just above 1, but no satisfaction
// probability exceeds 1, so degraded folds tighten to min(Hi, 1).
func clamp1(hi float64) float64 { return math.Min(hi, 1) }

// emit reports progress to the streaming observer, if any.
func (ex *executor) emit(res *Result) error {
	if ex.progress == nil {
		return nil
	}
	return ex.progress(res)
}

// valueMass is one positive-mass completion value of a marginal CPD.
type valueMass struct {
	v int
	p float64
}

// orderedMass lists d's positive-mass values in the exact order
// pdb.NewBlock would emit them as alternatives: built in value order,
// stable-sorted by descending probability (so equal-probability values
// keep value order). Replicating the order matters — float sums are
// order-sensitive, and the evaluator's contract is bit-identity with the
// derived block.
func orderedMass(d dist.Dist) []valueMass {
	ord := make([]valueMass, 0, len(d))
	for v, p := range d {
		if p > 0 {
			ord = append(ord, valueMass{v: v, p: p})
		}
	}
	slices.SortStableFunc(ord, func(x, y valueMass) int {
		switch {
		case x.p > y.p:
			return -1
		case x.p < y.p:
			return 1
		}
		return 0
	})
	return ord
}

// altsProb sums the probability of the satisfying alternatives, in block
// order — exactly the naive evaluation of a derived block.
func (ex *executor) altsProb(alts []pdb.Alternative) float64 {
	var s float64
	for _, a := range alts {
		if ex.plan.satisfies(a.Tuple) {
			s += a.Prob
		}
	}
	return s
}

// distProb is the satisfaction probability of a single-missing tuple
// whose missing attribute attr completes according to d: the sum of the
// satisfying completions' mass, in block-alternative order, bit-identical
// to altsProb over the block the derivation path would expand.
func (ex *executor) distProb(attr int, d dist.Dist) float64 {
	set := ex.q.sat[attr]
	var s float64
	for _, vm := range orderedMass(d) {
		if set == nil || set.contains(vm.v) {
			s += vm.p
		}
	}
	return s
}

// distAlts expands the marginal CPD of a single-missing tuple into the
// same completions, in the same order, as the derived block's
// alternatives.
func distAlts(t relation.Tuple, attr int, d dist.Dist) []pdb.Alternative {
	ord := orderedMass(d)
	alts := make([]pdb.Alternative, len(ord))
	for i, vm := range ord {
		tu := t.Clone()
		tu[attr] = vm.v
		alts[i] = pdb.Alternative{Tuple: tu, Prob: vm.p}
	}
	return alts
}

// exactProb resolves the exact satisfaction probability of planned
// tuple i, bumping the evaluation counters: tierVote from the shared
// CPD cache, tierBound and tierDerive through full block derivation
// (the bound tier's re-measured interval width feeds the tightness
// stats; a vacuous derive-tier tuple reports width 1).
func (ex *executor) exactProb(ctx context.Context, i int, c *Counters) (float64, error) {
	t := ex.rel.Tuples[i]
	switch act := ex.plan.acts[i]; act.tier {
	case tierSkip:
		return 0, nil
	case tierCertain:
		return 1, nil
	case tierObserved:
		// The conditioned posterior is already materialized; the exact
		// satisfying mass was folded at plan time (in block order). Free:
		// counts as pruned.
		return act.iv.Lo, nil
	case tierVote:
		c.Bounded++
		attr := t.MissingAttrs()[0]
		start := ex.tm.tick()
		d, _, err := ex.eng.MarginalCPD(t, attr)
		if err != nil {
			return 0, err
		}
		p := ex.distProb(attr, d)
		ex.tm.tock(start, &ex.tm.voteNS, &ex.tm.voteN)
		return p, nil
	default: // tierBound (undecided), tierDerive
		c.Derived++
		c.BoundWidth += act.iv.Width()
		start := ex.tm.tick()
		b, _, err := ex.eng.ResolveBlock(ctx, t)
		if err != nil {
			return 0, err
		}
		p := ex.altsProb(b.Alts)
		ex.tm.tock(start, &ex.tm.deriveNS, &ex.tm.deriveN)
		return p, nil
	}
}

// boundDecides reports whether an interval alone answers the MinProb
// comparison, and which way. Lo >= MinProb implies the exact probability
// reaches the threshold; Hi < MinProb implies it cannot.
func (ex *executor) boundDecides(iv derive.Interval) (decided, in bool) {
	switch {
	case iv.Lo >= ex.q.minProb:
		return true, true
	case iv.Hi < ex.q.minProb:
		return true, false
	default:
		return false, false
	}
}

// decideBound consumes a bound-tier decision into the counters.
func decideBound(c *Counters, iv derive.Interval, in bool) {
	c.Bounded++
	c.BoundWidth += iv.Width()
	if !in {
		c.BoundRefutes++
	}
}

// prefetch warms the engine caches for the given tuple indices across
// the request pools.
func (ex *executor) prefetch(ctx context.Context, idx []int) {
	if len(idx) == 0 {
		return
	}
	work := make([]relation.Tuple, len(idx))
	for i, j := range idx {
		work[i] = ex.rel.Tuples[j]
	}
	start := ex.tm.tick()
	ex.eng.PrefetchBlocks(ctx, work, ex.pools)
	if ex.tm.enabled {
		ex.tm.prefetchNS += time.Since(start).Nanoseconds()
		ex.tm.prefetchN += int64(len(idx))
	}
}

// evalCount folds per-tuple satisfaction probabilities in input order:
// the expected count, or — with a threshold — the number of tuples whose
// probability reaches it. With a threshold, bound-tier tuples whose
// interval clears or refutes it are decided without derivation, and only
// the straddling remainder joins the prefetched worklist.
func (ex *executor) evalCount(ctx context.Context) (*Result, error) {
	res := &Result{Op: Count}
	var work []int
	for i := range ex.rel.Tuples {
		switch act := ex.plan.acts[i]; act.tier {
		case tierVote, tierDerive:
			work = append(work, i)
		case tierBound:
			if decided, _ := ex.boundDecides(act.iv); !decided {
				work = append(work, i)
			}
		}
	}
	ex.prefetch(ctx, work)
	var degExtra float64   // expected mode: sum of min(Hi,1)-Lo over degraded tuples
	var degUndecided int64 // thresholded mode: degraded tuples the interval leaves open
	for i := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		act := ex.plan.acts[i]
		if act.tier == tierSkip {
			continue // contributes exactly 0, and 0 is never >= a positive threshold
		}
		if act.tier == tierBound {
			if decided, in := ex.boundDecides(act.iv); decided {
				decideBound(&res.Counters, act.iv, in)
				if in {
					res.Count++
				}
				continue
			}
		}
		p, deg, err := ex.probOrDegrade(ctx, i, &res.Counters)
		if err != nil {
			return nil, err
		}
		if deg {
			// Fold the interval instead of the point mass: the expected
			// count takes the lower side (Bounds carries the slack); a
			// thresholded count leaves the tuple undecided.
			if ex.q.minProb > 0 {
				if decided, in := ex.boundDecides(act.iv); decided {
					if in {
						res.Count++
					}
				} else {
					degUndecided++
				}
			} else {
				res.Expected += act.iv.Lo
				degExtra += clamp1(act.iv.Hi) - act.iv.Lo
			}
			continue
		}
		if ex.q.minProb > 0 {
			if p >= ex.q.minProb {
				res.Count++
			}
		} else {
			res.Expected += p
		}
	}
	if ex.degraded {
		if ex.q.minProb > 0 {
			res.Bounds = &derive.Interval{Lo: float64(res.Count), Hi: float64(res.Count + degUndecided)}
		} else {
			res.Bounds = &derive.Interval{Lo: res.Expected, Hi: res.Expected + degExtra}
		}
	}
	return res, nil
}

// evalExists computes the probability that at least one tuple satisfies
// the predicates, 1 - prod(1 - p_t) under block independence. A complete
// satisfying tuple is a certain witness: the product has an exactly-zero
// factor, so the answer is exactly 1 with no inference at all. With a
// threshold, a derivation-free pass first folds each tuple's sound lower
// bound (exact for cheap tiers, the dissociation interval's Lo for
// bound-tier tuples, 0 for derive-tier ones) in input order; the
// accumulated existence bound never exceeds the exact probability, so
// crossing the threshold there answers yes — early, and without a single
// chain. Only a non-crossing falls back to the exact sequential scan,
// which still stops as soon as the exact accumulation crosses. Without a
// threshold, the worklist is prefetched in parallel and folded fully.
func (ex *executor) evalExists(ctx context.Context) (*Result, error) {
	res := &Result{Op: Exists}
	for _, act := range ex.plan.acts {
		if act.tier == tierCertain {
			res.Prob, res.Exists, res.EarlyStop = 1, true, true
			return res, nil
		}
	}
	if ex.q.minProb > 0 {
		// Pass 1: derivation-free lower-bound accumulation. The free
		// bound-tier contributions fold first, so a crossing they achieve
		// alone costs not a single vote; the single-missing votes follow
		// in input order, each checked against the threshold so the pass
		// stops at the earliest crossing. Counters land in a scratch:
		// they only count if this pass decides. (When neither pass-1
		// source crosses, the votes were still not wasted — they sit in
		// the shared CPD cache for pass 2 and every later query.)
		var c Counters
		miss := 1.0 // upper bound on the probability that no tuple satisfies
		crossed := false
		for i := range ex.rel.Tuples {
			act := ex.plan.acts[i]
			switch act.tier {
			case tierBound:
				c.Bounded++
				c.BoundWidth += act.iv.Width()
				miss *= 1 - act.iv.Lo
			case tierObserved:
				// An observed tuple's mass is exact and free; fold it into
				// the derivation-free bound like the interval lows.
				miss *= 1 - act.iv.Lo
			default:
				continue
			}
			if 1-miss >= ex.q.minProb {
				crossed = true
				break
			}
		}
		for i := range ex.rel.Tuples {
			if crossed {
				break
			}
			if err := ex.scanErr(ctx); err != nil {
				return nil, err
			}
			if ex.plan.acts[i].tier != tierVote {
				continue
			}
			p, err := ex.exactProb(ctx, i, &c)
			if err != nil {
				return nil, err
			}
			miss *= 1 - p
			if 1-miss >= ex.q.minProb {
				crossed = true
			}
		}
		if crossed {
			res.Counters = c
			res.Prob, res.Exists, res.EarlyStop = 1-miss, true, true
			return res, nil
		}
		// Re-plan round: pass 1 already paid for every vote and the plan
		// carries every interval, so the derivation-free UPPER bound on
		// the existence probability is now free — exact masses for the
		// cheap tiers, the clamped interval upper side for bound- and
		// derive-tier tuples, folded in input order. If even that cannot
		// reach the threshold, pass 2 would derive every open tuple only to
		// confirm a no: answer it here, deriving nothing. The collective
		// refute is one-sided (Hi >= exact per factor, so the product bounds
		// the exact miss mass from below and 1-missHi bounds the existence
		// probability from above); the reported probability stays the
		// pass-1 lower bound, which never exceeds the exact mass — the
		// early-stop contract. A vacuous derive-tier tuple zeroes its
		// factor, so the round declines automatically when derivation could
		// still flip the decision.
		missHi := 1.0
		cut := 0
		var rc Counters
		for i := range ex.rel.Tuples {
			switch act := ex.plan.acts[i]; act.tier {
			case tierSkip:
			case tierObserved:
				missHi *= 1 - act.iv.Lo
			case tierVote:
				p, err := ex.exactProb(ctx, i, &rc)
				if err != nil {
					return nil, err
				}
				missHi *= 1 - p
			default: // tierBound, tierDerive
				missHi *= 1 - clamp1(act.iv.Hi)
				cut++
				rc.Bounded++
				rc.BoundWidth += act.iv.Width()
			}
			if missHi == 0 {
				break
			}
		}
		// The round only counts when it cut candidates pass 2 would have
		// derived; with no open bound-tier factor pass 2 is already cheap
		// and the exact scan keeps the reported probability exact.
		if cut > 0 && missHi > 0 && 1-missHi < ex.q.minProb {
			faultinject.Fire("query.replan")
			a := ex.plan.info.Adaptive
			a.Replans++
			a.ReplanCut = append(a.ReplanCut, cut)
			res.Counters = rc
			res.Prob, res.Exists, res.EarlyStop = 1-miss, false, true
			return res, nil
		}
		// Pass 2: the exact sequential scan (votes are already cached).
		// Under a spent budget, degraded tuples fold both interval sides:
		// miss keeps the 1-Lo factors (lower bound on the existence
		// probability, so the early stop stays sound) and missLo keeps the
		// 1-min(Hi,1) factors for the interval's upper side.
		miss = 1.0
		missLo := 1.0
		for i := range ex.rel.Tuples {
			if err := ex.scanErr(ctx); err != nil {
				return nil, err
			}
			if ex.plan.acts[i].tier == tierSkip {
				continue // factor 1 - 0: multiplying by 1 is exact
			}
			p, deg, err := ex.probOrDegrade(ctx, i, &res.Counters)
			if err != nil {
				return nil, err
			}
			if deg {
				iv := ex.plan.acts[i].iv
				miss *= 1 - iv.Lo
				missLo *= 1 - clamp1(iv.Hi)
			} else {
				miss *= 1 - p
				missLo *= 1 - p
			}
			if 1-miss >= ex.q.minProb {
				res.Prob, res.Exists, res.EarlyStop = 1-miss, true, true
				if ex.degraded {
					res.Bounds = &derive.Interval{Lo: res.Prob, Hi: 1}
				}
				return res, nil
			}
		}
		res.Prob = 1 - miss
		res.Exists = res.Prob >= ex.q.minProb
		if ex.degraded {
			res.Bounds = &derive.Interval{Lo: 1 - miss, Hi: 1 - missLo}
		}
		return res, nil
	}
	var work []int
	for i := range ex.rel.Tuples {
		if t := ex.plan.acts[i].tier; t == tierVote || t == tierBound || t == tierDerive {
			work = append(work, i)
		}
	}
	ex.prefetch(ctx, work)
	miss := 1.0
	missLo := 1.0
	for i := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		if ex.plan.acts[i].tier == tierSkip {
			continue
		}
		p, deg, err := ex.probOrDegrade(ctx, i, &res.Counters)
		if err != nil {
			return nil, err
		}
		if deg {
			iv := ex.plan.acts[i].iv
			miss *= 1 - iv.Lo
			missLo *= 1 - clamp1(iv.Hi)
		} else {
			miss *= 1 - p
			missLo *= 1 - p
		}
	}
	res.Prob = 1 - miss
	res.Exists = res.Prob > 0
	if ex.degraded {
		// The point answer keeps the conservative lower side; Bounds
		// brackets the exact probability.
		res.Bounds = &derive.Interval{Lo: 1 - miss, Hi: 1 - missLo}
	}
	return res, nil
}

// rowBefore reports whether row a precedes row b in result order:
// probability descending, then input index ascending. Equal
// (probability, index) pairs — alternatives of one block — are not
// ordered here; insert appends later arrivals after earlier ones, which
// preserves block order because a tuple's alternatives are inserted
// consecutively.
func rowBefore(a, b Row) bool {
	if a.Prob != b.Prob {
		return a.Prob > b.Prob
	}
	return a.Index < b.Index
}

// insert places r into the result rows at its ordered position,
// dropping it when the threshold or an already-full rank-k cut rejects
// it. The order is the stable descending sort of all satisfying rows
// generated in input order, regardless of the order insert is called in
// — which lets the executor resolve candidates upper-bound-first while
// keeping TopK output bit-identical to the oracle's.
func (ex *executor) insert(res *Result, r Row) {
	if ex.q.minProb > 0 && r.Prob < ex.q.minProb {
		return
	}
	if ex.q.k > 0 && len(res.Rows) == ex.q.k && !rowBefore(r, res.Rows[ex.q.k-1]) {
		return
	}
	pos := sort.Search(len(res.Rows), func(i int) bool { return rowBefore(r, res.Rows[i]) })
	res.Rows = append(res.Rows, Row{})
	copy(res.Rows[pos+1:], res.Rows[pos:])
	res.Rows[pos] = r
	if ex.q.k > 0 && len(res.Rows) > ex.q.k {
		res.Rows = res.Rows[:ex.q.k]
	}
}

// insertResolved resolves planned tuple i exactly and inserts its
// satisfying completions.
func (ex *executor) insertResolved(ctx context.Context, res *Result, i int) error {
	t := ex.rel.Tuples[i]
	switch act := ex.plan.acts[i]; act.tier {
	case tierObserved:
		start := ex.tm.tick()
		for _, a := range act.blk.Alts {
			if ex.plan.satisfies(a.Tuple) {
				ex.insert(res, Row{Index: i, Tuple: a.Tuple, Prob: a.Prob})
			}
		}
		ex.tm.tock(start, &ex.tm.observedNS, &ex.tm.observedN)
	case tierVote:
		res.Counters.Bounded++
		attr := t.MissingAttrs()[0]
		start := ex.tm.tick()
		d, _, err := ex.eng.MarginalCPD(t, attr)
		if err != nil {
			return err
		}
		for _, a := range distAlts(t, attr, d) {
			if ex.plan.satisfies(a.Tuple) {
				ex.insert(res, Row{Index: i, Tuple: a.Tuple, Prob: a.Prob})
			}
		}
		ex.tm.tock(start, &ex.tm.voteNS, &ex.tm.voteN)
	default: // tierBound, tierDerive
		res.Counters.Derived++
		res.Counters.BoundWidth += act.iv.Width()
		start := ex.tm.tick()
		b, _, err := ex.eng.ResolveBlock(ctx, t)
		if err != nil {
			return err
		}
		for _, a := range b.Alts {
			if ex.plan.satisfies(a.Tuple) {
				ex.insert(res, Row{Index: i, Tuple: a.Tuple, Prob: a.Prob})
			}
		}
		ex.tm.tock(start, &ex.tm.deriveNS, &ex.tm.deriveN)
	}
	return nil
}

// cutDecides reports whether the held rank-k row already decides
// candidate i out of a TopK evaluation — the exact predicate the
// candidate loop commits (see the comment there for the tie semantics).
// The predicate is monotone in the held rows: resolutions only raise the
// rank-k probability, and at equal probability only lower its input
// index, so a cut observed by an early re-plan sweep still holds when
// the per-candidate loop accounts it.
func (ex *executor) cutDecides(res *Result, i int) bool {
	if ex.q.k <= 0 || len(res.Rows) < ex.q.k {
		return false
	}
	act := ex.plan.acts[i]
	kth := res.Rows[ex.q.k-1]
	hi := math.Min(act.iv.Hi, 1)
	strictHi := act.tier == tierBound && act.iv.Hi < 1
	return kth.Prob > hi || (kth.Prob >= hi && (strictHi || i > kth.Index))
}

// replanWave is one TopK re-plan round: before the executor prefetches
// and resolves the next wave of candidates, it re-applies the rank-k cut
// and the probability threshold under everything resolved so far, so
// candidates the tighter state already decides are never prefetched and
// their chains never run. Decisions are not committed here: the
// per-candidate loop re-checks and accounts each one identically, which
// is sound because the cut predicate is monotone (see cutDecides) — a
// round changes scheduling only, never answers. A round that cut
// candidates after fresh resolutions counts as a re-plan on
// PlanInfo.Adaptive.
func (ex *executor) replanWave(ctx context.Context, res *Result, wave []int, resolved int) {
	var live []int
	cut := 0
	for _, i := range wave {
		act := ex.plan.acts[i]
		switch {
		case ex.cutDecides(res, i):
			cut++
		case ex.q.minProb > 0 && act.iv.Hi < ex.q.minProb:
			// Threshold-refuted: decided at plan time, nothing to warm.
		default:
			live = append(live, i)
		}
	}
	if cut > 0 && resolved > 0 {
		faultinject.Fire("query.replan")
		a := ex.plan.info.Adaptive
		a.Replans++
		a.ReplanCut = append(a.ReplanCut, cut)
	}
	if !ex.budgetExhausted() {
		ex.prefetch(ctx, live)
	}
}

// evalTopK folds the satisfying completions into the k most probable
// rows, holding at most k rows at any time; the result is exactly the
// stable descending sort of the full selection cut to k. The cheap tiers
// resolve first (certain rows, then single-missing tuples, in input
// order); the remaining candidates are visited in decreasing
// upper-bound order, so as soon as rank k is held at a probability the
// best remaining upper bound cannot beat, every tuple left is skipped —
// soundly, because each of its satisfying completions is capped by that
// bound and would lose the (probability, input order) tie-break anyway.
// Candidates below the probability threshold are likewise refuted by
// their upper bound alone. With a rank cut the candidates resolve in
// waves, each prefetched only after a re-plan sweep (replanWave) has cut
// what the held rank k already decides; the single-missing worklist is
// prefetched only when the certain rows cannot already fill the cut.
func (ex *executor) evalTopK(ctx context.Context) (*Result, error) {
	res := &Result{Op: TopK}
	certains := 0
	for _, act := range ex.plan.acts {
		if act.tier == tierCertain {
			certains++
		}
	}
	var cands []int // bound + derive candidates, resolved upper-bound-first
	var work []int  // prefetched derivation worklist
	prefetch := ex.q.k <= 0 || certains < ex.q.k
	for i := range ex.rel.Tuples {
		switch act := ex.plan.acts[i]; act.tier {
		case tierVote:
			if prefetch {
				work = append(work, i)
			}
		case tierBound, tierDerive:
			cands = append(cands, i)
			// With a rank cut in play a candidate may never be resolved,
			// so it is prefetched per wave, after the re-plan sweep below
			// has filtered it; without one (k <= 0) only the threshold can
			// spare it, which its upper bound already decides — so the
			// survivors are prefetched like any other derivation.
			if ex.q.k <= 0 && !(ex.q.minProb > 0 && act.iv.Hi < ex.q.minProb) {
				work = append(work, i)
			}
		}
	}
	ex.prefetch(ctx, work)

	// Cheap tiers in input order. Once rank k is held at probability 1,
	// every later cheap-tier row ties at best and loses the input-order
	// tie-break, so the rest of the scan costs nothing — exactly the
	// k-certain-rows early stop the pre-planner evaluator had.
	resolved := 0 // exact resolutions since the last re-plan sweep
	for i := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		if ex.q.k > 0 && len(res.Rows) == ex.q.k && res.Rows[ex.q.k-1].Prob >= 1 {
			res.EarlyStop = true
			break
		}
		switch ex.plan.acts[i].tier {
		case tierCertain:
			ex.insert(res, Row{Index: i, Tuple: ex.rel.Tuples[i], Prob: 1, Certain: true})
		case tierVote, tierObserved:
			if err := ex.insertResolved(ctx, res, i); err != nil {
				return nil, err
			}
			resolved++
			if err := ex.emit(res); err != nil {
				return nil, err
			}
		}
	}

	// Candidates in decreasing upper-bound order (ties keep input order,
	// so the schedule is deterministic; result order never depends on it).
	slices.SortStableFunc(cands, func(a, b int) int {
		ha, hb := ex.plan.acts[a].iv.Hi, ex.plan.acts[b].iv.Hi
		switch {
		case ha > hb:
			return -1
		case ha < hb:
			return 1
		}
		return 0
	})
	// Wave size: without a rank cut every candidate was prefetched above
	// and one wave takes them all; with one, a re-plan round sweeps
	// before each wave, so the wave is sized to resolve a couple of
	// rank-k turnovers between sweeps.
	wave := len(cands)
	if ex.q.k > 0 {
		wave = max(2*ex.q.k, 8)
	}
	var degHi float64 // best upper bound among budget-skipped candidates
	for w := 0; w < len(cands); w += wave {
		end := w + wave
		if end > len(cands) {
			end = len(cands)
		}
		if ex.q.k > 0 {
			ex.replanWave(ctx, res, cands[w:end], resolved)
			resolved = 0
		}
		for _, i := range cands[w:end] {
			if err := ex.scanErr(ctx); err != nil {
				return nil, err
			}
			act := ex.plan.acts[i]
			if ex.q.k > 0 && len(res.Rows) == ex.q.k {
				// A candidate is skipped only when no completion of its block
				// can displace the held rank k. Every alternative's
				// probability is capped by the tuple's upper bound AND by 1
				// (a normalized block entry never exceeds 1 even in floats,
				// so an interval clamped just above 1 still cannot be beaten
				// past it), so a beaten bound — or a tied one the
				// (probability, input index) tie-break rejects — decides the
				// tuple out. A tie decides a bound-tier candidate with an
				// unclamped upper bound unconditionally: the interval margins
				// keep such a Hi strictly unattainable. Any other tie decides
				// the tuple only when it enters after the rank-k row, because
				// probability exactly 1 IS attainable there — a capped block
				// renormalizes to a single probability-1 alternative, and a
				// joint over cardinality-1 attributes smooths to one — and a
				// probability-1 row from an earlier input index wins the
				// tie-break and belongs in the cut. cutDecides applies
				// exactly this predicate.
				if ex.cutDecides(res, i) {
					if act.tier == tierBound {
						decideBound(&res.Counters, act.iv, false)
					}
					res.EarlyStop = true
					continue
				}
			}
			if ex.q.minProb > 0 && act.iv.Hi < ex.q.minProb {
				decideBound(&res.Counters, act.iv, false)
				continue
			}
			if ex.budgetExhausted() {
				// Budget spent: stop resolving candidates. The rows already
				// held are exact; every unresolved candidate's completions are
				// capped by its interval upper side, reported through Bounds.
				ex.degrade(&res.Counters, act.iv)
				degHi = math.Max(degHi, clamp1(act.iv.Hi))
				continue
			}
			err := ex.insertResolved(ctx, res, i)
			if err != nil {
				if ex.hasDL && errors.Is(err, context.DeadlineExceeded) {
					res.Counters.Derived--
					res.Counters.BoundWidth -= act.iv.Width()
					ex.exhausted = true
					ex.degrade(&res.Counters, act.iv)
					degHi = math.Max(degHi, clamp1(act.iv.Hi))
					continue
				}
				return nil, err
			}
			resolved++
			if err := ex.emit(res); err != nil {
				return nil, err
			}
		}
	}
	if ex.degraded {
		res.Bounds = &derive.Interval{Lo: 0, Hi: degHi}
	}
	return res, nil
}

// evalGroupBy folds the satisfying probability mass into an expected
// histogram of the group attribute: certain tuples contribute 1 to their
// group, every uncertain tuple contributes its per-value satisfying mass
// (independent Bernoulli variance per block). The derivation worklist is
// prefetched in parallel first. GroupBy needs every tuple's exact mass,
// so bounds never decide tuples and the scan is always full — but under a
// spent deadline budget the remaining derive-tier tuples fold their
// dissociation intervals into per-group [Lo, Hi] brackets instead.
func (ex *executor) evalGroupBy(ctx context.Context) (*Result, error) {
	var work []int
	for i := range ex.rel.Tuples {
		if t := ex.plan.acts[i].tier; t == tierVote || t == tierDerive {
			work = append(work, i)
		}
	}
	ex.prefetch(ctx, work)
	g := ex.q.groupAttr
	card := ex.q.schema.Attrs[g].Card()
	res := &Result{Op: GroupBy, Groups: make([]Group, card)}
	for v := range res.Groups {
		res.Groups[v] = Group{Value: v, Label: ex.q.schema.Attrs[g].Domain[v]}
	}
	perValue := make([]float64, card)
	fold := func() {
		for v, p := range perValue {
			res.Groups[v].Expected += p
			res.Groups[v].Variance += p * (1 - p)
		}
	}
	// Per-group interval slack accumulated from degraded tuples: a tuple
	// whose group value is known contributes [Lo, min(Hi,1)] to that
	// group; one whose group attribute is itself missing could land its
	// satisfying mass in any group, so every group's upper side widens.
	var degHi []float64
	degradeGroup := func(i int, t relation.Tuple) {
		iv := ex.plan.acts[i].iv
		ex.degrade(&res.Counters, iv)
		if degHi == nil {
			degHi = make([]float64, card)
		}
		if gv := t[g]; gv != relation.Missing {
			// Expected holds the interval's lower side; degHi the slack.
			res.Groups[gv].Expected += iv.Lo
			degHi[gv] += clamp1(iv.Hi) - iv.Lo
		} else {
			for v := range degHi {
				degHi[v] += clamp1(iv.Hi)
			}
		}
	}
	for i, t := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		switch ex.plan.acts[i].tier {
		case tierSkip:
			continue
		case tierCertain:
			res.Groups[t[g]].Expected++
			continue
		case tierObserved:
			start := ex.tm.tick()
			clear(perValue)
			for _, a := range ex.plan.acts[i].blk.Alts {
				if ex.plan.satisfies(a.Tuple) {
					perValue[a.Tuple[g]] += a.Prob
				}
			}
			fold()
			ex.tm.tock(start, &ex.tm.observedNS, &ex.tm.observedN)
		case tierVote:
			res.Counters.Bounded++
			attr := t.MissingAttrs()[0]
			start := ex.tm.tick()
			d, _, err := ex.eng.MarginalCPD(t, attr)
			if err != nil {
				return nil, err
			}
			clear(perValue)
			set := ex.q.sat[attr]
			for _, vm := range orderedMass(d) {
				if set != nil && !set.contains(vm.v) {
					continue
				}
				gv := t[g]
				if attr == g {
					gv = vm.v
				}
				perValue[gv] += vm.p
			}
			fold()
			ex.tm.tock(start, &ex.tm.voteNS, &ex.tm.voteN)
		default: // tierDerive (groupby plans no bound tier)
			if ex.budgetExhausted() {
				degradeGroup(i, t)
				break
			}
			res.Counters.Derived++
			res.Counters.BoundWidth += ex.plan.acts[i].iv.Width()
			start := ex.tm.tick()
			b, _, err := ex.eng.ResolveBlock(ctx, t)
			if err != nil {
				if ex.hasDL && errors.Is(err, context.DeadlineExceeded) {
					res.Counters.Derived--
					res.Counters.BoundWidth -= ex.plan.acts[i].iv.Width()
					ex.exhausted = true
					degradeGroup(i, t)
					break
				}
				return nil, err
			}
			clear(perValue)
			for _, a := range b.Alts {
				if ex.plan.satisfies(a.Tuple) {
					perValue[a.Tuple[g]] += a.Prob
				}
			}
			fold()
			ex.tm.tock(start, &ex.tm.deriveNS, &ex.tm.deriveN)
		}
		if err := ex.emit(res); err != nil {
			return nil, err
		}
	}
	if ex.degraded {
		for v := range res.Groups {
			res.Groups[v].Lo = res.Groups[v].Expected
			res.Groups[v].Hi = res.Groups[v].Expected + degHi[v]
		}
	}
	return res, nil
}
