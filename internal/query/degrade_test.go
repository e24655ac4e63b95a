package query

import (
	"context"
	"testing"
	"time"

	"repro/internal/derive"
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
	items := deriveAll(t, model, rel, engineConfig(2, 4))
	eng, err := derive.New(model, engineConfig(2, 4))
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
	items := deriveAll(t, model, rel, engineConfig(2, 4))
	eng, err := derive.New(model, engineConfig(2, 4))
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
