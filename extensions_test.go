package repro

import (
	"context"
	"testing"

	"repro/internal/relation"
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
	res, err := eng.Query(context.Background(), rel, q)
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewEngine(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	err = full.DeriveStream(rel, func(it DeriveItem) error {
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
	})
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

func TestDiagnoseFacade(t *testing.T) {
	m, _ := matchmakingModel(t)
	tu := Tuple{Missing, Missing, 0, 1}
	d, err := Diagnose(m, tu, GibbsOptions{Samples: 100, BurnIn: 20, Seed: 2}, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if d.RHat <= 0 {
		t.Errorf("R-hat = %v", d.RHat)
	}
	if d.Chains != 4 || d.SamplesPerChain != 200 {
		t.Errorf("shape = %dx%d", d.Chains, d.SamplesPerChain)
	}
}

func TestAutoTuneGibbsFacade(t *testing.T) {
	m, _ := matchmakingModel(t)
	tu := Tuple{Missing, 0, Missing, 1}
	burnIn, samples, diag, err := AutoTuneGibbs(m, tu, GibbsOptions{Seed: 3}, 1.1, 16, 512)
	if err != nil {
		t.Fatal(err)
	}
	if burnIn <= 0 || samples < 16 || samples > 512 || diag == nil {
		t.Errorf("autotune = %d, %d, %v", burnIn, samples, diag)
	}
}

func TestJoinFacade(t *testing.T) {
	keys := []string{"k0", "k1"}
	left := NewRelation(relation.MustSchema([]Attribute{
		{Name: "v", Domain: []string{"a", "b"}},
		{Name: "fk", Domain: keys},
	}))
	right := NewRelation(relation.MustSchema([]Attribute{
		{Name: "pk", Domain: keys},
		{Name: "w", Domain: []string{"x", "y"}},
	}))
	if err := left.Append(Tuple{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := right.Append(Tuple{1, 0}); err != nil {
		t.Fatal(err)
	}
	out, err := Join(left, right, JoinSpec{LeftKey: 1, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.NumAttrs() != 2 || out.Len() != 1 {
		t.Errorf("joined = %v rows over %v", out.Len(), out.Schema.SortedAttrNames())
	}
}

func TestDiscretizeTableFacade(t *testing.T) {
	raw := RawTable{
		Names: []string{"temp"},
		Rows:  [][]string{{"1.5"}, {"2.5"}, {"8.0"}, {"9.5"}},
	}
	rel, err := DiscretizeTable(raw, 2, EqualWidth)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.Attrs[0].Card() != 2 {
		t.Errorf("buckets = %d", rel.Schema.Attrs[0].Card())
	}
	if rel.Tuples[0][0] != 0 || rel.Tuples[3][0] != 1 {
		t.Errorf("codes = %v, %v", rel.Tuples[0][0], rel.Tuples[3][0])
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
