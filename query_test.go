package repro

import (
	"context"
	"testing"
)

// eqPredsHold reports whether the complete tuple u satisfies every
// predicate in preds, all of which must be equalities.
func eqPredsHold(preds []QueryPred, u Tuple) bool {
	for _, p := range preds {
		if u[p.Attr] != p.Value {
			return false
		}
	}
	return true
}

// queryMatchesDerivation evaluates the expected count of preds through
// Engine.Query and, on a fresh engine with the same options, through a
// full derivation folded in input order; it requires the two to be equal
// bit for bit and the plan to have decided tuples from their known
// values alone.
func queryMatchesDerivation(t *testing.T, m *Model, rel *Relation, opt DeriveOptions, preds []QueryPred) *QueryResult {
	t.Helper()
	q, err := CompileQuery(m.Schema, QuerySpec{Op: QueryCount, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), rel, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewEngine(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	err = full.Derive(context.Background(), rel, Pools{}, EmitFunc(func(it DeriveItem) error {
		if it.Certain() {
			if eqPredsHold(preds, it.Tuple) {
				want++
			}
			return nil
		}
		var p float64
		for _, a := range it.Block.Alts {
			if eqPredsHold(preds, a.Tuple) {
				p += a.Prob
			}
		}
		want += p
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected != want {
		t.Errorf("query count %v != full derivation %v", res.Expected, want)
	}
	if res.Plan.Refuted+res.Plan.Certain == 0 {
		t.Error("query decided nothing from known values")
	}
	return res
}

// TestLazyQueryFacade: lazy, query-targeted inference through the root
// facade answers in range and exactly as a full derivation would.
func TestLazyQueryFacade(t *testing.T) {
	m, rel := matchmakingModel(t)
	inc := rel.Schema.AttrIndex("inc")
	opt := DeriveOptions{Workers: 2, Gibbs: GibbsOptions{Samples: 200, BurnIn: 20, Seed: 1}}
	res := queryMatchesDerivation(t, m, rel, opt, []QueryPred{{Attr: inc, Cmp: QueryEq, Value: 0}})
	if res.Expected <= 0 || res.Expected > float64(rel.Len()) {
		t.Errorf("expected count = %v out of range", res.Expected)
	}
}

// TestLazyMatchesEagerOnMatchmaking: the lazy expected count equals
// eager derivation + expected count.
func TestLazyMatchesEagerOnMatchmaking(t *testing.T) {
	m, rel := matchmakingModel(t)
	inc := rel.Schema.AttrIndex("inc")
	opt := DeriveOptions{Workers: 2, Gibbs: GibbsOptions{Samples: 2000, BurnIn: 100, Seed: 4}}
	queryMatchesDerivation(t, m, rel, opt, []QueryPred{{Attr: inc, Cmp: QueryEq, Value: 1}})
}
