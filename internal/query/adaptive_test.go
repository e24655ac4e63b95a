package query

// Tests for the adaptive execution layer: bit-identity of evaluation
// against the derive-everything oracle, envelope sharing across queries
// (including on an always-evicting engine), the exists collective-refute
// re-plan round, plans that depend on no other engine, and the pooled
// plan path's allocation budget.

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/derive"
	"repro/internal/relation"
)

// TestAdaptiveMatchesOracle is the adaptive layer's core property:
// across every operator, randomized thresholds, and worker counts
// {1, 2, 8}, evaluation with re-planning and shared envelopes is
// bit-identical to the naive full-derivation oracle — including on an
// always-evicting CacheEntries=1 engine, where every shared-envelope
// entry is under eviction pressure.
func TestAdaptiveMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{17, 18} {
		model, rel := fixture(t, seed)
		items := deriveAll(t, model, rel, engineConfig(4, 4))

		type labeled struct {
			label string
			eng   *derive.Engine
		}
		var engines []labeled
		for _, w := range [][2]int{{1, 1}, {2, 2}, {8, 8}} {
			eng, err := derive.New(model, engineConfig(w[0], w[1]))
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, labeled{label: "workers", eng: eng})
		}
		thrashCfg := engineConfig(2, 2)
		thrashCfg.CacheEntries = 1
		thrash, err := derive.New(model, thrashCfg)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, labeled{label: "thrash", eng: thrash})

		rng := rand.New(rand.NewSource(seed * 131))
		for _, op := range []Op{Count, Exists, TopK, GroupBy} {
			for round := 0; round < 3; round++ {
				q, err := Compile(model.Schema, randomSpec(rng, model.Schema, op))
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range engines {
					res, err := Eval(ctx, e.eng, rel, q)
					if err != nil {
						t.Fatalf("%s %v: %v", e.label, op, err)
					}
					checkOracle(t, e.label+" "+q.String(), q, res, items, model.Schema)
				}
			}
		}
	}
}

// TestAdaptiveDegradedStaysSound exercises the adaptive layer under a
// spent deadline budget: evaluation answers without error, and whatever
// the adaptive machinery decides — degrade to an interval, or decide
// early from bounds before the budget matters — stays sound against
// the oracle.
func TestAdaptiveDegradedStaysSound(t *testing.T) {
	model, rel := fixture(t, 23)
	items := deriveAll(t, model, rel, engineConfig(4, 4))

	for _, spec := range []Spec{
		{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}},
		{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}, MinProb: 0.5},
		{Op: Exists, Preds: []Pred{{Attr: 1, Cmp: Eq, Value: 0}}, MinProb: 0.97},
	} {
		query, err := Compile(model.Schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := derive.New(model, engineConfig(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, query)
		if err != nil {
			t.Fatalf("degraded %s: %v", query.String(), err)
		}
		if !res.Degraded {
			// The exists refute may decide before the budget is consulted;
			// then the answer must be exactly oracle-correct.
			checkOracle(t, "budget-free "+query.String(), query, res, items, model.Schema)
			continue
		}
		if res.Bounds == nil {
			t.Fatalf("degraded %s without bounds", query.String())
		}
		switch spec.Op {
		case Count:
			expected, n := oracleCount(query.preds, items, spec.MinProb)
			if spec.MinProb > 0 {
				expected = float64(n)
			}
			if expected < res.Bounds.Lo-degradeEps || expected > res.Bounds.Hi+degradeEps {
				t.Fatalf("degraded %s: oracle %v outside bounds [%v, %v]",
					query.String(), expected, res.Bounds.Lo, res.Bounds.Hi)
			}
		case Exists:
			prob := oracleExists(query.preds, items)
			if prob < res.Bounds.Lo-degradeEps || prob > res.Bounds.Hi+degradeEps {
				t.Fatalf("degraded %s: oracle %v outside bounds [%v, %v]",
					query.String(), prob, res.Bounds.Lo, res.Bounds.Hi)
			}
		}
	}
}

// TestEnvelopeSharingAcrossQueries pins the cross-query envelope cache:
// the first bounded evaluation misses and populates the shared interval
// cache, the second — same predicates, fresh compiled query — serves its
// multi-missing envelopes from it, visible on PlanInfo.Adaptive and in
// the engine's EnvelopeHits/EnvelopeMisses stats.
func TestEnvelopeSharingAcrossQueries(t *testing.T) {
	ctx := context.Background()
	model, rel := fixture(t, 29)
	eng, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}, MinProb: 0.5}
	q, err := Compile(model.Schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Eval(ctx, eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	a := first.Plan.Adaptive
	if a == nil {
		t.Fatal("bounded adaptive evaluation has no adaptive block")
	}
	// The cache is content-keyed, so duplicate evidence patterns hit even
	// within the first plan; but a cold cache must have paid misses.
	if a.EnvelopeMisses == 0 {
		t.Fatalf("first evaluation: %d hits / %d misses, want cold misses", a.EnvelopeHits, a.EnvelopeMisses)
	}
	q2, err := Compile(model.Schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Eval(ctx, eng, rel, q2)
	if err != nil {
		t.Fatal(err)
	}
	b := second.Plan.Adaptive
	if b == nil || b.EnvelopeHits == 0 || b.EnvelopeMisses != 0 {
		t.Fatalf("second evaluation: %+v, want all envelope probes served from the shared cache", b)
	}
	st := eng.Stats()
	if st.EnvelopeHits != int64(a.EnvelopeHits+b.EnvelopeHits) || st.EnvelopeMisses != int64(a.EnvelopeMisses+b.EnvelopeMisses) {
		t.Fatalf("engine stats (%d hits / %d misses) disagree with plans (%+v, %+v)",
			st.EnvelopeHits, st.EnvelopeMisses, a, b)
	}
	if r := st.EnvelopeHitRate(); r <= 0 || r >= 1 {
		t.Fatalf("envelope hit rate %v outside (0, 1)", r)
	}
}

// TestExistsCollectiveRefute pins the exists re-plan round: a threshold
// the derivation-free upper bound already rules out is answered without
// deriving a single block, recorded as a re-plan, and agrees with the
// derive-everything oracle. The micro-relation is assembled from fixture tuples
// so the envelopes are real: multi-missing tuples whose predicate
// attribute is missing (informative upper bounds), plus refuted
// complete tuples.
func TestExistsCollectiveRefute(t *testing.T) {
	ctx := context.Background()
	model, rel := fixture(t, 37)
	s := model.Schema

	// Find a predicate attribute with enough multi-missing tuples missing
	// it, and build the micro-relation.
	for attr := 0; attr < s.NumAttrs(); attr++ {
		var open []relation.Tuple
		for _, tu := range rel.Tuples {
			if tu.NumMissing() > 1 && tu[attr] == relation.Missing {
				open = append(open, tu)
			}
		}
		if len(open) < 3 {
			continue
		}
		for v := 0; v < s.Attrs[attr].Card(); v++ {
			micro := relation.NewRelation(s)
			for _, tu := range open[:3] {
				if err := micro.Append(tu); err != nil {
					t.Fatal(err)
				}
			}
			for _, tu := range rel.Tuples {
				if tu.IsComplete() && tu[attr] != v {
					if err := micro.Append(tu); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			spec := Spec{Op: Exists, Preds: []Pred{{Attr: attr, Cmp: Eq, Value: v}}, MinProb: 0.999}
			q, err := Compile(s, spec)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := derive.New(model, engineConfig(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Eval(ctx, eng, micro, q)
			if err != nil {
				t.Fatal(err)
			}
			a := res.Plan.Adaptive
			if a == nil || a.Replans == 0 {
				continue // this value's bounds leave the threshold open; try the next
			}
			// The refute fired: no derivation, decided no, early.
			if res.Exists || !res.EarlyStop {
				t.Fatalf("refuted exists: Exists=%v EarlyStop=%v", res.Exists, res.EarlyStop)
			}
			if res.Counters.Derived != 0 {
				t.Fatalf("refute derived %d blocks", res.Counters.Derived)
			}
			if len(a.ReplanCut) != 1 || a.ReplanCut[0] == 0 {
				t.Fatalf("replan cut %v, want one non-empty round", a.ReplanCut)
			}
			// Same decision as the oracle, and the reported probability is
			// a sound lower bound on its exact mass.
			items := deriveAll(t, model, micro, engineConfig(2, 2))
			checkOracle(t, "collective refute "+q.String(), q, res, items, s)
			if eng.Stats().Replans == 0 {
				t.Fatal("engine stats did not record the re-plan")
			}
			return
		}
	}
	t.Fatal("no (attribute, value) produced a collective refute on this fixture")
}

// TestPlanIndependentOfOtherEngines pins that a plan depends on its own
// engine and the query alone: the same bounded query on two fresh,
// identically configured engines yields the same plan summary whether it
// runs before or after a third engine in the process has done at least
// 32 votes and 8 chains of inference of its own — enough to warm every
// process-wide latency histogram.
func TestPlanIndependentOfOtherEngines(t *testing.T) {
	ctx := context.Background()
	model, rel := fixture(t, 47)
	q, err := Compile(model.Schema, Spec{
		Op: Count, Preds: []Pred{{Attr: 0, Cmp: Eq, Value: 0}}, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	planOnFreshEngine := func() PlanInfo {
		t.Helper()
		eng, err := derive.New(model, engineConfig(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(ctx, eng, rel, q)
		if err != nil {
			t.Fatal(err)
		}
		info := *res.Plan
		info.Timing = nil
		return info
	}
	before := planOnFreshEngine()
	if before.Adaptive == nil || before.Bounded == 0 {
		t.Fatalf("query is not bounded: %+v", before)
	}

	// The third engine's workload: every complete tuple over the (small)
	// schema with one or two attributes blanked, so it computes every
	// distinct vote and pair chain the schema admits.
	s := model.Schema
	size := 1
	for _, at := range s.Attrs {
		size *= at.Card()
	}
	busy := relation.NewRelation(s)
	for code := 0; code < size; code++ {
		tu := relation.NewTuple(s.NumAttrs())
		rem := code
		for a := range tu {
			tu[a] = rem % s.Attrs[a].Card()
			rem /= s.Attrs[a].Card()
		}
		for a := range tu {
			for b := a; b < len(tu); b++ {
				u := tu.Clone()
				u[a], u[b] = relation.Missing, relation.Missing
				if err := busy.Append(u); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	other, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Stream(busy, func(derive.Item) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := other.Stats(); st.VotesComputed < 32 || st.GibbsComputed < 8 {
		t.Fatalf("third engine ran only %d votes and %d chains", st.VotesComputed, st.GibbsComputed)
	}

	after := planOnFreshEngine()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("plan moved with another engine's traffic:\nbefore %+v %+v\nafter  %+v %+v",
			before, *before.Adaptive, after, *after.Adaptive)
	}
}

// TestPlanPathAllocations pins the pooled plan path: steady-state plan
// compilation on a warm engine stays within a fixed allocation budget
// (pre-pooling it sat in the hundreds).
func TestPlanPathAllocations(t *testing.T) {
	ctx := context.Background()
	model, rel := fixture(t, 43)
	eng, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{
		Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(ctx, eng, rel, q); err != nil { // warm envelopes + caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Plan(ctx, eng, rel, q); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 40
	if allocs > budget {
		t.Fatalf("plan path allocates %.1f per run, budget %d", allocs, budget)
	}
}
