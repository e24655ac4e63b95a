package query

// Tests for the adaptive execution layer: bit-identity of evaluation
// against the derive-everything oracle, envelope sharing across queries
// (including on an always-evicting engine) without one tuple's interval
// ever answering for another's, plans that depend on no other engine,
// and the pooled plan path's allocation budget.

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
		items := deriveAll(t, model, rel, engineConfig(4))

		type labeled struct {
			label string
			eng   *derive.Engine
		}
		var engines []labeled
		for _, w := range []int{1, 2, 8} {
			eng, err := derive.New(model, engineConfig(w))
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, labeled{label: "workers", eng: eng})
		}
		thrashCfg := engineConfig(2)
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
					res, err := Eval(ctx, e.eng, rel, q, Options{})
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
	items := deriveAll(t, model, rel, engineConfig(4))

	for _, spec := range []Spec{
		{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}},
		{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}, MinProb: 0.5},
		{Op: Exists, Preds: []Pred{{Attr: 1, Cmp: Eq, Value: 0}}, MinProb: 0.97},
	} {
		query, err := Compile(model.Schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := derive.New(model, engineConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, query, Options{})
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
	eng, err := derive.New(model, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}, MinProb: 0.5}
	q, err := Compile(model.Schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Eval(ctx, eng, rel, q, Options{})
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
	second, err := Eval(ctx, eng, rel, q2, Options{})
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
}

// TestIntervalCacheKeyAcrossQueries pins that the shared interval cache
// never serves one tuple's interval to another. The evidence key lists
// a tuple's known (index, value) pairs with no terminator, so unless the
// interval key marks where it ends, tuple [0 1 ? ?] with no constrained
// missing attribute and tuple [0 ? ? ?] with attribute 1 constrained to
// {0} share a key — and the second query below answers from the first
// one's interval, counting 0 where the oracle counts 1.
func TestIntervalCacheKeyAcrossQueries(t *testing.T) {
	ctx := context.Background()
	model, _ := fixture(t, 5)
	s := model.Schema
	relOf := func(tu relation.Tuple) *relation.Relation {
		rel := relation.NewRelation(s)
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	wide := relation.NewTuple(s.NumAttrs())
	wide[0] = 0
	narrow := wide.Clone()
	narrow[1] = 1

	eng, err := derive.New(model, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	first, err := Compile(s, Spec{Op: Count, Preds: []Pred{{Attr: 1, Cmp: Eq, Value: 0}}, MinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(ctx, eng, relOf(wide), first, Options{}); err != nil {
		t.Fatal(err)
	}
	second, err := Compile(s, Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Eq, Value: 0}}, MinProb: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(ctx, eng, relOf(narrow), second, Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := deriveAll(t, model, relOf(narrow), engineConfig(2))
	checkOracle(t, "after "+first.String()+": "+second.String(), second, res, items, s)
	if a := res.Plan.Adaptive; a == nil || a.EnvelopeMisses != 1 {
		t.Fatalf("second query's interval was not computed afresh: %+v", a)
	}
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
		eng, err := derive.New(model, engineConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(ctx, eng, rel, q, Options{})
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
	other, err := derive.New(model, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Stream(context.Background(), busy, derive.Pools{}, derive.EmitFunc(func(derive.Item) error { return nil })); err != nil {
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
	eng, err := derive.New(model, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{
		Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(ctx, eng, rel, q, Options{PlanOnly: true}); err != nil { // warm envelopes + caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Eval(ctx, eng, rel, q, Options{PlanOnly: true}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 40
	if allocs > budget {
		t.Fatalf("plan path allocates %.1f per run, budget %d", allocs, budget)
	}
}
