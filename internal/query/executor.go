// Executor: the second stage of the query pipeline. It consumes the
// planner's tiers in increasing cost order — evidence-decided tuples for
// free, single-missing tuples from their voted blocks, bound-tier tuples
// from their dissociation intervals, and only the remainder through full
// block derivation — while keeping every answer bit-identical to deriving
// the whole relation and evaluating the stream naively:
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
//     worklist.
//
// Every operator reads a tuple's completions through one call, resolve:
// it hands the operator's fold the tuple's satisfying alternatives in
// block order — from an observed tuple's conditioned block, or from the
// engine's cached block on the vote, bound and derive tiers — and owns
// the deadline fallback.
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
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// ProgressFunc observes a TopK or GroupBy evaluation while it waits on
// inference (other operators fold scalars and report nothing
// incremental). The executor calls it only before a wait — when a
// prefetch starts its pool at a worklist's first uncached block, and
// before a tuple's block must be computed inline or waited on — and only
// when the result changed since the last call, so an evaluation served
// from the engine's caches never calls it. The *Result is the live,
// partially filled result — read it synchronously, do not retain it.
// Returning an error aborts the evaluation with that error; a panic
// aborts it with a *derive.PanicError whose Op is "emit".
type ProgressFunc func(*Result) error

// Options are the per-request settings of one Eval.
type Options struct {
	// Pools sizes the prefetch worker pools; zero fields inherit the
	// engine's. Pool sizes affect scheduling only, never the answer.
	Pools derive.Pools
	// Progress, when non-nil, observes a TopK or GroupBy evaluation while
	// it waits on inference; see ProgressFunc. Projected SPJ queries
	// combine their distinct answers at the end of the scan and report
	// nothing incremental.
	Progress ProgressFunc
	// PlanOnly compiles the plan without executing it: the Result carries
	// only Plan, and nothing is folded into the engine's Query* counters.
	// The envelope votes behind the bound tier do run, memoized in the
	// engine's shared CPD cache, so planning honors ctx too.
	PlanOnly bool
}

// Eval evaluates the compiled query q over src, extensionally, on top of
// the engine's shared caches, through the plan/executor pipeline: a
// planner orders predicate evaluation by estimated selectivity and
// classifies every tuple into a resolution tier (attaching sound
// dissociation bound intervals to multi-missing tuples — see
// derive.Engine.BoundCPD), and the executor consumes the tiers in
// increasing cost order. src is a relation, a dataset snapshot, or a
// compiled SPJ, in which case q must be the SPJ's own query (SPJ.Query):
//
//   - Over a relation, every answer is bit-identical to deriving the
//     full probabilistic database through the same engine and evaluating
//     naively over the stream, for every worker count — yet selective
//     queries derive only the tuples whose bounds leave the answer open.
//     The contract rests on the engine's multi-missing estimates being
//     content-seeded per tuple: a tuple's block does not depend on which
//     other tuples are resolved with it.
//   - Over a snapshot (derive.Dataset.Snapshot), tuples with applied
//     evidence resolve from their conditioned posterior blocks — exactly,
//     for free, and without touching the engine's estimators. The answer
//     is bit-identical to a fresh engine deriving the conditioned
//     database and evaluating naively.
//   - Over an SPJ, safe plans and linear operators over unsafe plans are
//     exact like a relation; unsafe exists runs the dissociation
//     pre-pass (deciding the threshold from the interval alone when it
//     clears) before falling back to the exact dissociated product, and
//     projected queries run the distinct-answer evaluator.
//
// A relation or a snapshot is a safe plan with no projection, so it
// takes the same path as a safe SPJ. Canceling ctx aborts evaluation
// with ctx.Err(). On success the evaluation's counters are folded into
// the engine's stats (EngineStats' Query* fields) and the compiled plan
// summary is attached to Result.Plan.
func Eval(ctx context.Context, eng *derive.Engine, src derive.Source, q *Query, opts Options) (*Result, error) {
	wallStart := time.Now()
	in, err := unpack(eng, src, q)
	if err != nil {
		return nil, err
	}
	pl, err := q.newPlan(ctx, eng, in.rel, in.observed)
	if err != nil {
		return nil, err
	}
	defer pl.release()
	pl.info.Join = in.join
	if opts.PlanOnly {
		return &Result{Plan: pl.info}, nil
	}
	planDur := time.Since(wallStart)
	planSeconds.Observe(planDur)
	ex := newExecutor(ctx, q, eng, in.rel, pl, opts)
	ex.tm.start = wallStart
	ex.tm.planNS = planDur.Nanoseconds()
	var res *Result
	switch {
	case len(in.project) > 0:
		res, err = ex.evalProject(ctx, in.project)
	case q.op == Exists && !in.safe:
		res, err = ex.evalExistsDissociated(ctx)
	default:
		res, err = ex.dispatch(ctx)
	}
	if err != nil {
		return nil, err
	}
	return ex.finish(res, !in.safe && (q.op == Exists || len(in.project) > 0)), nil
}

// input is an Eval source unpacked: its relation, a snapshot's
// conditioned blocks, and an SPJ's join summary, projection and safety
// verdict. A relation or a snapshot is safe, with no join and no
// projection.
type input struct {
	rel      *relation.Relation
	observed map[int]*pdb.Block
	join     *JoinPlanInfo
	project  []int
	safe     bool
}

// unpack turns src into an input, rejecting nil arguments and schema
// mismatches before any planning or inference runs.
func unpack(eng *derive.Engine, src derive.Source, q *Query) (input, error) {
	if eng == nil || q == nil {
		return input{}, fmt.Errorf("query: nil engine or query")
	}
	rel, observed, err := eng.Unpack(src)
	if err != nil {
		return input{}, err
	}
	if d := eng.Model().Schema.Diff(q.schema); d != "" {
		return input{}, fmt.Errorf("query: compiled against a different schema: %s", d)
	}
	in := input{rel: rel, observed: observed, safe: true}
	if spj, ok := src.(*SPJ); ok {
		if q != spj.q {
			return input{}, fmt.Errorf("query: an SPJ source evaluates its own compiled query")
		}
		in.join, in.project, in.safe = spj.JoinInfo(), spj.project, spj.safe
	}
	return in, nil
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

// executor runs one evaluation over a compiled plan.
type executor struct {
	q        *Query
	eng      *derive.Engine
	rel      *relation.Relation
	plan     *plan
	pools    derive.Pools
	progress ProgressFunc

	// The progress report (see report): live is the TopK or GroupBy result
	// in flight, changed marks a fold into it since the last report, and
	// idle is report as the engine's idle hook, nil without an observer.
	live    *Result
	changed bool
	idle    func() error

	// The evaluation context's Done channel, which the scans poll per
	// tuple (see scanErr), and the context without its cancellation, which
	// the vote tier reads under (see resolve). Both are taken once per
	// evaluation: Err locks the context's mutex on every call, and
	// WithoutCancel allocates.
	done    <-chan struct{}
	voteCtx context.Context

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
	pl *plan, opts Options) *executor {
	ex := &executor{q: q, eng: eng, rel: rel, plan: pl, pools: opts.Pools, progress: opts.Progress,
		done: ctx.Done(), voteCtx: context.WithoutCancel(ctx)}
	if ex.progress != nil {
		ex.idle = ex.report
	}
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
// to bounds instead of failing. ctx is the evaluation's context; scanErr
// reads its Err only once its Done channel, captured by newExecutor, has
// closed, since Err is nil until then.
func (ex *executor) scanErr(ctx context.Context) error {
	select {
	case <-ex.done:
	default:
		return nil
	}
	err := ctx.Err()
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

// clamp1 caps an interval's upper side at 1: the dissociation envelopes
// carry a float-margin ceiling just above 1, but no satisfaction
// probability exceeds 1, so degraded folds tighten to min(Hi, 1).
func clamp1(hi float64) float64 { return math.Min(hi, 1) }

// report hands the live result to the progress observer if a fold
// changed it since the last report. It is the idle hook the executor
// passes to Engine.ResolveBlock and Engine.PrefetchBlocks, so it runs
// only when the evaluation is about to wait on inference, behind the
// engine's emit panic boundary.
func (ex *executor) report() error {
	if !ex.changed {
		return nil
	}
	ex.changed = false
	return ex.progress(ex.live)
}

// resolve hands fold the satisfying alternatives of planned tuple i, in
// block order, and bumps the evaluation counters: a certain tuple is its
// own alternative at probability 1, an observed tuple reads its
// conditioned block, and the vote, bound and derive tiers read the block
// Engine.ResolveBlock serves (the vote tier counts as Bounded, the other
// two as Derived with their interval's width). The timed tiers' clocks
// cover the fold.
//
// resolve owns the deadline fallback. Once the budget is spent, or the
// deadline cuts a wait, a bound- or derive-tier tuple folds nothing: it
// is accounted degraded and ok is false, so the caller folds the tuple's
// planned interval instead. A single-missing tuple has no interval to
// fall back on, so it never degrades and never fails on the budget: its
// block is read under the evaluation context without its cancellation,
// since a wait on one vote is short.
func (ex *executor) resolve(ctx context.Context, i int, c *Counters, fold func(pdb.Alternative)) (ok bool, err error) {
	act := ex.plan.acts[i]
	switch act.tier {
	case tierSkip:
		return true, nil
	case tierCertain:
		fold(pdb.Alternative{Tuple: ex.rel.Tuples[i], Prob: 1})
		return true, nil
	}
	start := ex.tm.tick()
	var b *pdb.Block
	ns, n := &ex.tm.deriveNS, &ex.tm.deriveN
	switch act.tier {
	case tierObserved:
		b, ns, n = act.blk, &ex.tm.observedNS, &ex.tm.observedN
	case tierVote:
		c.Bounded++
		if b, _, err = ex.eng.ResolveBlock(ex.voteCtx, ex.rel.Tuples[i], ex.idle); err != nil {
			return false, err
		}
		ns, n = &ex.tm.voteNS, &ex.tm.voteN
	default: // tierBound (undecided), tierDerive
		if ex.budgetExhausted() {
			ex.degrade(c, act.iv)
			return false, nil
		}
		if b, _, err = ex.eng.ResolveBlock(ctx, ex.rel.Tuples[i], ex.idle); err != nil {
			if ex.hasDL && errors.Is(err, context.DeadlineExceeded) {
				ex.exhausted = true
				ex.degrade(c, act.iv)
				return false, nil
			}
			return false, err
		}
		c.Derived++
		c.BoundWidth += act.iv.Width()
	}
	for _, a := range b.Alts {
		if ex.plan.satisfies(a.Tuple) {
			fold(a)
		}
	}
	ex.tm.tock(start, ns, n)
	return true, nil
}

// prob is resolve folded into planned tuple i's satisfaction
// probability: its satisfying alternatives' mass summed in block order,
// exactly the naive evaluation of its block.
func (ex *executor) prob(ctx context.Context, i int, c *Counters) (p float64, ok bool, err error) {
	ok, err = ex.resolve(ctx, i, c, func(a pdb.Alternative) { p += a.Prob })
	return p, ok, err
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
// the request pools, reporting progress while the pool works. Its error
// is the progress observer's.
func (ex *executor) prefetch(ctx context.Context, idx []int) error {
	if len(idx) == 0 {
		return nil
	}
	work := make([]relation.Tuple, len(idx))
	for i, j := range idx {
		work[i] = ex.rel.Tuples[j]
	}
	start := ex.tm.tick()
	err := ex.eng.PrefetchBlocks(ctx, work, ex.pools, ex.idle)
	if ex.tm.enabled {
		ex.tm.prefetchNS += time.Since(start).Nanoseconds()
		ex.tm.prefetchN += int64(len(idx))
	}
	return err
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
	if err := ex.prefetch(ctx, work); err != nil {
		return nil, err
	}
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
		p, ok, err := ex.prob(ctx, i, &res.Counters)
		if err != nil {
			return nil, err
		}
		if !ok {
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
		// source crosses, the votes were still not wasted — their blocks
		// sit in the engine's block cache for pass 2 and every later
		// query.)
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
			p, _, err := ex.prob(ctx, i, &c)
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
			p, ok, err := ex.prob(ctx, i, &res.Counters)
			if err != nil {
				return nil, err
			}
			if ok {
				miss *= 1 - p
				missLo *= 1 - p
			} else {
				iv := ex.plan.acts[i].iv
				miss *= 1 - iv.Lo
				missLo *= 1 - clamp1(iv.Hi)
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
	if err := ex.prefetch(ctx, work); err != nil {
		return nil, err
	}
	miss := 1.0
	missLo := 1.0
	for i := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		if ex.plan.acts[i].tier == tierSkip {
			continue
		}
		p, ok, err := ex.prob(ctx, i, &res.Counters)
		if err != nil {
			return nil, err
		}
		if ok {
			miss *= 1 - p
			missLo *= 1 - p
		} else {
			iv := ex.plan.acts[i].iv
			miss *= 1 - iv.Lo
			missLo *= 1 - clamp1(iv.Hi)
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
	ex.changed = true
}

// insertResolved resolves planned tuple i and inserts its satisfying
// completions; ok is resolve's.
func (ex *executor) insertResolved(ctx context.Context, res *Result, i int) (ok bool, err error) {
	return ex.resolve(ctx, i, &res.Counters, func(a pdb.Alternative) {
		ex.insert(res, Row{Index: i, Tuple: a.Tuple, Prob: a.Prob})
	})
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
func (ex *executor) replanWave(ctx context.Context, res *Result, wave []int, resolved int) error {
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
	if ex.budgetExhausted() {
		return nil
	}
	return ex.prefetch(ctx, live)
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
	ex.live = res
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
	if err := ex.prefetch(ctx, work); err != nil {
		return nil, err
	}

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
			if _, err := ex.insertResolved(ctx, res, i); err != nil {
				return nil, err
			}
			resolved++
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
			if err := ex.replanWave(ctx, res, cands[w:end], resolved); err != nil {
				return nil, err
			}
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
			ok, err := ex.insertResolved(ctx, res, i)
			if err != nil {
				return nil, err
			}
			if !ok {
				// Budget spent: the rows already held are exact; every
				// unresolved candidate's completions are capped by its
				// interval upper side, reported through Bounds.
				degHi = math.Max(degHi, clamp1(act.iv.Hi))
				continue
			}
			resolved++
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
	if err := ex.prefetch(ctx, work); err != nil {
		return nil, err
	}
	g := ex.q.groupAttr
	card := ex.q.schema.Attrs[g].Card()
	res := &Result{Op: GroupBy, Groups: make([]Group, card)}
	ex.live = res
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
			ex.changed = true
			continue
		}
		clear(perValue)
		ok, err := ex.resolve(ctx, i, &res.Counters, func(a pdb.Alternative) { perValue[a.Tuple[g]] += a.Prob })
		if err != nil {
			return nil, err
		}
		if ok {
			fold()
		} else {
			degradeGroup(i, t)
		}
		ex.changed = true
	}
	if ex.degraded {
		for v := range res.Groups {
			res.Groups[v].Lo = res.Groups[v].Expected
			res.Groups[v].Hi = res.Groups[v].Expected + degHi[v]
		}
	}
	return res, nil
}
