package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/derive"
	"repro/internal/faultinject"
	"repro/internal/relation"
)

// expiredCtx carries a deadline that has already passed: the
// deterministic worst case for the deadline budget — every expensive
// tuple must be answered from bounds, none derived.
func expiredCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return ctx
}

const degradeEps = 1e-9

// requireDegraded asserts the common degradation contract: the flag, the
// tuple count, and the counter partition.
func requireDegraded(t *testing.T, label string, res *Result) {
	t.Helper()
	if !res.Degraded {
		t.Fatalf("%s: not degraded under an expired deadline", label)
	}
	if res.DegradedTuples <= 0 {
		t.Fatalf("%s: degraded without degraded tuples", label)
	}
	c := res.Counters
	if c.Pruned+c.Bounded+c.Derived != c.Scanned {
		t.Fatalf("%s: counters do not partition the scan: %+v", label, c)
	}
}

// TestDegradedBoundsContainOracle is the fail-soft core property: with a
// spent deadline budget, every operator still answers — no error — and
// the reported [lo, hi] bracket contains the exact (derive-everything
// oracle) value, while the point answer sits on the bracket's sound
// lower side.
func TestDegradedBoundsContainOracle(t *testing.T) {
	model, rel := fixture(t, 31)
	items := deriveAll(t, model, rel, engineConfig(4))
	eng, err := derive.New(model, engineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	preds := []Pred{{Attr: 0, Cmp: Eq, Value: 1}}

	t.Run("count-expected", func(t *testing.T) {
		q, err := Compile(model.Schema, Spec{Op: Count, Preds: preds})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, q, Options{})
		if err != nil {
			t.Fatalf("expired deadline failed instead of degrading: %v", err)
		}
		requireDegraded(t, "count", res)
		want, _ := oracleCount(preds, items, 0)
		if res.Bounds == nil {
			t.Fatal("degraded count has no bounds")
		}
		if res.Bounds.Lo > want+degradeEps || res.Bounds.Hi < want-degradeEps {
			t.Fatalf("oracle expected %v outside degraded bounds [%v, %v]", want, res.Bounds.Lo, res.Bounds.Hi)
		}
		if res.Expected != res.Bounds.Lo {
			t.Fatalf("point answer %v is not the bracket's lower side %v", res.Expected, res.Bounds.Lo)
		}
	})

	t.Run("count-thresholded", func(t *testing.T) {
		q, err := Compile(model.Schema, Spec{Op: Count, Preds: preds, MinProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, q, Options{})
		if err != nil {
			t.Fatalf("expired deadline failed instead of degrading: %v", err)
		}
		requireDegraded(t, "count-thresholded", res)
		_, want := oracleCount(preds, items, 0.5)
		if res.Bounds == nil {
			t.Fatal("degraded thresholded count has no bounds")
		}
		if float64(want) < res.Bounds.Lo || float64(want) > res.Bounds.Hi {
			t.Fatalf("oracle count %d outside degraded bounds [%v, %v]", want, res.Bounds.Lo, res.Bounds.Hi)
		}
		if float64(res.Count) != res.Bounds.Lo {
			t.Fatalf("point count %d is not the bracket's lower side %v", res.Count, res.Bounds.Lo)
		}
	})

	t.Run("exists", func(t *testing.T) {
		// Predicates no complete tuple satisfies would be ideal, but any
		// certain witness answers exists exactly even when degraded; both
		// outcomes are checked.
		q, err := Compile(model.Schema, Spec{Op: Exists, Preds: preds})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, q, Options{})
		if err != nil {
			t.Fatalf("expired deadline failed instead of degrading: %v", err)
		}
		want := oracleExists(preds, items)
		if res.EarlyStop {
			// A certain witness decided it exactly; degradation never ran.
			if res.Prob != 1 || want != 1 {
				t.Fatalf("early-stop exists %v, oracle %v", res.Prob, want)
			}
			return
		}
		requireDegraded(t, "exists", res)
		if res.Bounds == nil {
			t.Fatal("degraded exists has no bounds")
		}
		if res.Bounds.Lo > want+degradeEps || res.Bounds.Hi < want-degradeEps {
			t.Fatalf("oracle P(exists) %v outside degraded bounds [%v, %v]", want, res.Bounds.Lo, res.Bounds.Hi)
		}
		if res.Prob != res.Bounds.Lo {
			t.Fatalf("point probability %v is not the bracket's lower side %v", res.Prob, res.Bounds.Lo)
		}
	})

	t.Run("topk", func(t *testing.T) {
		q, err := Compile(model.Schema, Spec{Op: TopK, Preds: preds, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, q, Options{})
		if err != nil {
			t.Fatalf("expired deadline failed instead of degrading: %v", err)
		}
		requireDegraded(t, "topk", res)
		if res.Bounds == nil {
			t.Fatal("degraded topk has no bounds")
		}
		// Every emitted row was resolved exactly: it must appear, with a
		// bit-identical probability, in the oracle's full selection.
		all := oracleTopK(preds, items, 0, 0)
		for _, r := range res.Rows {
			found := false
			for _, o := range all {
				if o.Index == r.Index && o.Prob == r.Prob && o.Tuple.Equal(r.Tuple) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("degraded row %+v not in the oracle selection", r)
			}
		}
		// Any true top-k row the degraded answer missed is capped by the
		// reported upper bound.
		want := oracleTopK(preds, items, 5, 0)
		for _, o := range want {
			found := false
			for _, r := range res.Rows {
				if o.Index == r.Index && o.Prob == r.Prob && o.Tuple.Equal(r.Tuple) {
					found = true
					break
				}
			}
			if !found && o.Prob > res.Bounds.Hi+degradeEps {
				t.Fatalf("missing oracle row with p=%v above degraded cap %v", o.Prob, res.Bounds.Hi)
			}
		}
	})

	t.Run("groupby", func(t *testing.T) {
		g := 1
		q, err := Compile(model.Schema, Spec{Op: GroupBy, Preds: preds, GroupBy: model.Schema.Attrs[g].Name})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, rel, q, Options{})
		if err != nil {
			t.Fatalf("expired deadline failed instead of degrading: %v", err)
		}
		requireDegraded(t, "groupby", res)
		want := oracleGroupBy(preds, items, model.Schema, g)
		for v, og := range want {
			gg := res.Groups[v]
			if gg.Lo > og.Expected+degradeEps || gg.Hi < og.Expected-degradeEps {
				t.Fatalf("group %s: oracle %v outside degraded [%v, %v]", og.Label, og.Expected, gg.Lo, gg.Hi)
			}
			if gg.Expected != gg.Lo {
				t.Fatalf("group %s: point %v is not the bracket's lower side %v", og.Label, gg.Expected, gg.Lo)
			}
		}
	})
}

// TestGenerousDeadlineStaysExact pins the other half of the contract: a
// deadline the evaluation comfortably fits inside changes nothing — the
// answer stays bit-identical to the oracle and is never flagged
// degraded, even though the planner computed the extra envelopes.
func TestGenerousDeadlineStaysExact(t *testing.T) {
	model, rel := fixture(t, 32)
	items := deriveAll(t, model, rel, engineConfig(4))
	eng, err := derive.New(model, engineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	preds := []Pred{{Attr: 0, Cmp: Ne, Value: 0}}
	for _, spec := range []Spec{
		{Op: Count, Preds: preds},
		{Op: Count, Preds: preds, MinProb: 0.4},
		{Op: Exists, Preds: preds, MinProb: 0.99},
		{Op: TopK, Preds: preds, K: 7},
		{Op: GroupBy, Preds: preds, GroupBy: model.Schema.Attrs[0].Name},
	} {
		q, err := Compile(model.Schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(ctx, eng, rel, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || res.DegradedTuples != 0 {
			t.Fatalf("%s: degraded under a generous deadline", q.String())
		}
		checkOracle(t, q.String(), q, res, items, model.Schema)
	}
}

// TestUnsafeExistsDegradesUnderSpentDeadline: the dissociation pre-pass
// of an unsafe SPJ exists treats a spent deadline like every other scan
// does, so under an already expired deadline the query answers at every
// threshold instead of failing: flagged Dissociated, with Bounds that
// contain both the oracle mass and the reported probability, and Degraded
// exactly when an expensive tuple was answered from its interval.
func TestUnsafeExistsDegradesUnderSpentDeadline(t *testing.T) {
	model, people, cities, pa, v := spjUnsafeFixture(t, 111)
	preds := []Pred{{Attr: pa, Cmp: Eq, Value: v}}
	cfg := engineConfig(2)
	var prob float64
	for i, minProb := range []float64{0, 0.3, 0.999} {
		spj, err := CompileSPJ(model.Schema, spjSpec(Spec{Op: Exists, Preds: preds, MinProb: minProb}, people, cities))
		if err != nil {
			t.Fatal(err)
		}
		if spj.Safe() {
			t.Fatal("shared uncertain cities must make the plan unsafe")
		}
		if i == 0 {
			prob = oracleExists(preds, deriveAll(t, model, spj.SourceRelation(), cfg))
		}
		eng, err := derive.New(model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Eval(expiredCtx(t), eng, spj, spj.Query(), Options{})
		if err != nil {
			t.Fatalf("minprob %v: expired deadline failed instead of degrading: %v", minProb, err)
		}
		if !res.Dissociated {
			t.Fatalf("minprob %v: unsafe exists not flagged dissociated: %+v", minProb, res)
		}
		if b := res.Bounds; b == nil || b.Lo > prob+degradeEps || b.Hi < prob-degradeEps ||
			b.Lo > res.Prob || b.Hi < res.Prob {
			t.Fatalf("minprob %v: bounds %+v do not contain the oracle mass %v and the reported %v",
				minProb, res.Bounds, prob, res.Prob)
		}
		if res.Degraded != (res.DegradedTuples > 0) || res.Counters.Derived != 0 {
			t.Fatalf("minprob %v: degraded %v with %d degraded tuples and %d derived under an expired deadline",
				minProb, res.Degraded, res.DegradedTuples, res.Counters.Derived)
		}
		if c := res.Counters; c.Pruned+c.Bounded+c.Derived != c.Scanned {
			t.Fatalf("minprob %v: counters do not partition the scan: %+v", minProb, c)
		}
	}
}

// TestSingleMissingWaitsOutDeadline pins the first deadline rule of the
// executor's resolve: a single-missing tuple has no interval to fall
// back on, so it never degrades and never fails on the budget. Its vote
// is claimed, and held in flight by an injected sleep, on another
// goroutine; a count under an expired deadline whose only incomplete
// tuple it is reaches it while the claimer still sleeps, waits for the
// vote, and answers exactly.
func TestSingleMissingWaitsOutDeadline(t *testing.T) {
	model, rel := fixture(t, 31)
	sub := relation.NewRelation(rel.Schema)
	var single relation.Tuple
	for _, tu := range rel.Tuples {
		if tu.IsComplete() || (single == nil && tu.NumMissing() == 1) {
			if !tu.IsComplete() {
				single = tu
			}
			if err := sub.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	if single == nil {
		t.Fatal("fixture has no single-missing tuple")
	}
	cfg := engineConfig(2)
	items := deriveAll(t, model, sub, cfg)
	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{Op: Count, Preds: []Pred{{Attr: single.MissingAttrs()[0], Cmp: Ge, Value: 1}}})
	if err != nil {
		t.Fatal(err)
	}

	if err := faultinject.Configure("derive.vote=sleep:50ms/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	claimed := make(chan error, 1)
	go func() {
		_, _, err := eng.ResolveBlock(context.Background(), single, nil)
		claimed <- err
	}()
	for eng.Stats().VotesComputed < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	res, err := Eval(expiredCtx(t), eng, sub, q, Options{})
	if err != nil {
		t.Fatalf("single-missing tuple failed on a spent budget: %v", err)
	}
	if res.Degraded {
		t.Fatalf("single-missing tuple degraded: %+v", res)
	}
	checkOracle(t, "single-missing under an expired deadline", q, res, items, model.Schema)
	if err := <-claimed; err != nil {
		t.Fatal(err)
	}
}

// TestProjectedSPJNeverDegrades pins the second deadline rule: the
// projected distinct-answer evaluator folds no interval, so a tuple
// answered from one would silently drop mass. Under a deadline inside
// the budget's 2 ms safety margin, a projected SPJ with multi-missing
// rows returns the deadline error or the exact answer, never a degraded
// one.
func TestProjectedSPJNeverDegrades(t *testing.T) {
	model, people, cities := spjSafeFixture(t, 131)
	nAttrs := model.Schema.NumAttrs()
	preds := []Pred{{Attr: 1, Cmp: Ge, Value: 1}}
	ss := spjSpec(Spec{Op: Count, Preds: preds}, people, cities)
	ss.Project = []string{model.Schema.Attrs[0].Name, model.Schema.Attrs[nAttrs-1].Name}
	spj, err := CompileSPJ(model.Schema, ss)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, tu := range spj.SourceRelation().Tuples {
		if !spj.Query().refutes(tu) && tu.NumMissing() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("fixture has no multi-missing row")
	}
	cfg := engineConfig(2)
	var want float64
	for _, r := range oracleProject(deriveAll(t, model, spj.SourceRelation(), cfg), preds, []int{0, nAttrs - 1}, 0) {
		want += r.Prob
	}
	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := Eval(ctx, eng, spj, spj.Query(), Options{})
	switch {
	case err != nil:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("projected SPJ under a 1ms deadline: %v", err)
		}
	case res.Degraded || res.DegradedTuples != 0:
		t.Fatalf("projected SPJ answered degraded: %+v", res)
	case res.Expected != want:
		t.Fatalf("projected SPJ expected count %v, want bit-identical %v", res.Expected, want)
	}
}

// TestProjectedSPJComputesNoEnvelope: the projected distinct-answer
// evaluator folds no interval, not even as a deadline fallback, so under
// a deadline the planner computes no dissociation envelope for its
// multi-missing rows, and the answer stays exact.
func TestProjectedSPJComputesNoEnvelope(t *testing.T) {
	model, people, cities := spjSafeFixture(t, 131)
	nAttrs := model.Schema.NumAttrs()
	preds := []Pred{{Attr: 1, Cmp: Ge, Value: 1}}
	ss := spjSpec(Spec{Op: Count, Preds: preds}, people, cities)
	ss.Project = []string{model.Schema.Attrs[0].Name, model.Schema.Attrs[nAttrs-1].Name}
	spj, err := CompileSPJ(model.Schema, ss)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engineConfig(2)
	var want float64
	for _, r := range oracleProject(deriveAll(t, model, spj.SourceRelation(), cfg), preds, []int{0, nAttrs - 1}, 0) {
		want += r.Prob
	}
	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := Eval(ctx, eng, spj, spj.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Derive == 0 {
		t.Fatal("fixture has no multi-missing row on the derive tier")
	}
	if st := eng.Stats(); res.Plan.Adaptive != nil || st.EnvelopeHits+st.EnvelopeMisses != 0 {
		t.Errorf("projected SPJ under a deadline probed %d envelopes (plan adaptive block %+v), want none",
			st.EnvelopeHits+st.EnvelopeMisses, res.Plan.Adaptive)
	}
	if res.Expected != want {
		t.Errorf("projected SPJ expected count %v, want bit-identical %v", res.Expected, want)
	}
}
