package repro

// Adaptive-execution benchmarks and the deterministic re-planning win.
//
// The workloads come from internal/experiment's adversarial generator:
// skewed duplicate damage (shared-envelope traffic), correlated missing
// pairs (informative envelopes, so mid-query re-planning has candidates
// to cut), and tuples missing all but one attribute (the widest
// envelopes the schema allows). Benchmarks run the served query path on
// fresh engines; TestAdaptiveTopKCutsDerivations pins its answer to a
// full derivation and its win to blocks never derived.

import (
	"context"
	"sort"
	"testing"

	"repro/internal/experiment"
	"repro/internal/relation"
)

// adversarialEnv builds an adversarial relation over the standard bench
// model, sourcing complete evidence from the bench relation.
func adversarialEnv(tb testing.TB, cfg experiment.AdversarialConfig) (*deriveBenchEnv, *Relation) {
	tb.Helper()
	env := deriveBenchSetup(tb)
	var src []relation.Tuple
	for _, t := range env.rel.Tuples {
		if t.IsComplete() {
			src = append(src, t)
		}
	}
	rel, err := experiment.BuildAdversarialRelation(env.model.Schema, src, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return env, rel
}

// adversarialTopK picks a TopK query whose predicate constrains the
// relation's most frequently missing attribute, so the multi-missing
// envelopes are informative and rank-k cuts can fire.
func adversarialTopK(env *deriveBenchEnv, rel *Relation, k int) QuerySpec {
	nAttrs := env.model.Schema.NumAttrs()
	missing := make([]int, nAttrs)
	count := make([]int, nAttrs)
	var w Tuple
	for _, t := range rel.Tuples {
		for a := 0; a < nAttrs; a++ {
			if t[a] == relation.Missing {
				missing[a]++
			}
		}
		if w == nil && t.IsComplete() {
			w = t
		}
	}
	attr := 0
	for a := 1; a < nAttrs; a++ {
		if missing[a] > missing[attr] {
			attr = a
		}
	}
	// The rarest complete value of that attribute: selective enough that
	// certain tuples do not fill rank k by themselves.
	for _, t := range rel.Tuples {
		if t[attr] != relation.Missing {
			count[t[attr]]++
		}
	}
	value := w[attr]
	for v := range count {
		if count[v] > 0 && count[v] < count[value] {
			value = v
		}
	}
	return QuerySpec{
		Op: QueryTopK, K: k,
		Preds: []QueryPred{{Attr: attr, Cmp: QueryEq, Value: value}},
	}
}

func requireSameRows(tb testing.TB, got, want []QueryRow) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("row count %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Prob != want[i].Prob {
			tb.Fatalf("row %d: query (%d, %v) != full derivation (%d, %v)",
				i, got[i].Index, got[i].Prob, want[i].Index, want[i].Prob)
		}
	}
}

// deriveTopK is the derive-everything oracle of an unthresholded TopK
// spec: every satisfying row of a full derivation on a fresh engine, in
// stream order, stable-sorted by descending probability and cut to k.
func deriveTopK(tb testing.TB, m *Model, rel *Relation, opt DeriveOptions, spec QuerySpec) []QueryRow {
	tb.Helper()
	eng, err := NewEngine(m, opt)
	if err != nil {
		tb.Fatal(err)
	}
	var rows []QueryRow
	i := 0
	err = eng.Derive(context.Background(), rel, Pools{}, EmitFunc(func(it DeriveItem) error {
		if it.Certain() {
			if eqPredsHold(spec.Preds, it.Tuple) {
				rows = append(rows, QueryRow{Index: i, Tuple: it.Tuple, Prob: 1})
			}
		} else {
			for _, a := range it.Block.Alts {
				if eqPredsHold(spec.Preds, a.Tuple) {
					rows = append(rows, QueryRow{Index: i, Tuple: a.Tuple, Prob: a.Prob})
				}
			}
		}
		i++
		return nil
	}))
	if err != nil {
		tb.Fatal(err)
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Prob > rows[b].Prob })
	if len(rows) > spec.K {
		rows = rows[:spec.K]
	}
	return rows
}

// TestAdaptiveTopKCutsDerivations is the wave cut's measurable win,
// pinned deterministically: on a correlated-damage workload whose cheap
// tiers cannot fill rank k, the executor resolves the multi-missing
// candidates in waves and cuts the tail once rank k is unbeatable. The
// rows equal a full derivation's bit for bit, and at least 25% fewer
// distinct blocks are derived than the plan leaves open — every one of
// which a blanket prefetch of the candidates would have derived.
func TestAdaptiveTopKCutsDerivations(t *testing.T) {
	cfg := experiment.AdversarialConfig{
		Seed: 5, Size: 360, Patterns: 24, SkewExp: 1.1,
		CorrelatedPairs: 3, OverBudgetFrac: 0, CompleteFrac: 0.05,
	}
	env, rel := adversarialEnv(t, cfg)
	spec := adversarialTopK(env, rel, 4)
	q, err := CompileQuery(env.model.Schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := DeriveOptions{Method: BestAveraged(), Workers: 4, Gibbs: benchGibbs()}
	eng, err := NewEngine(env.model, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(context.Background(), rel, q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, res.Rows, deriveTopK(t, env.model, rel, opt, spec))

	// The open candidates: multi-missing tuples the predicate does not
	// refute from their known values.
	pred := spec.Preds[0]
	open, distinct := 0, make(map[string]bool)
	for _, tu := range rel.Tuples {
		if tu.NumMissing() > 1 && (tu[pred.Attr] == relation.Missing || tu[pred.Attr] == pred.Value) {
			open++
			distinct[tu.Key()] = true
		}
	}
	if open != res.Plan.Bounded+res.Plan.Derive {
		t.Fatalf("%d open multi-missing tuples, plan has %d bounded + %d derive",
			open, res.Plan.Bounded, res.Plan.Derive)
	}
	a := res.Plan.Adaptive
	if a == nil || a.Replans == 0 {
		t.Fatalf("run recorded no re-plan rounds: %+v", a)
	}
	derived := eng.Stats().GibbsComputed
	t.Logf("derived blocks: %d of %d distinct open candidates (%d re-plan rounds, cut %v)",
		derived, len(distinct), a.Replans, a.ReplanCut)
	if 4*derived > 3*int64(len(distinct)) {
		t.Fatalf("derived %d blocks of %d distinct open candidates: less than 25%% saved",
			derived, len(distinct))
	}
}

// BenchmarkQueryAdaptive measures the rank-k workload above on fresh
// engines: the wave cut's savings are blocks never derived, so wall time
// follows the derivation drop. make bench-gate reads the sub-benchmark
// by its name, BenchmarkQueryAdaptive/adaptive.
func BenchmarkQueryAdaptive(b *testing.B) {
	cfg := experiment.AdversarialConfig{
		Seed: 5, Size: 360, Patterns: 24, SkewExp: 1.1,
		CorrelatedPairs: 3, OverBudgetFrac: 0, CompleteFrac: 0.05,
	}
	env, rel := adversarialEnv(b, cfg)
	spec := adversarialTopK(env, rel, 4)
	q, err := CompileQuery(env.model.Schema, spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := DeriveOptions{Method: BestAveraged(), Workers: 4, Gibbs: benchGibbs()}
	ctx := context.Background()
	run := func(b *testing.B) *QueryResult {
		eng, err := NewEngine(env.model, opt)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Query(ctx, rel, q, QueryOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	requireSameRows(b, run(b).Rows, deriveTopK(b, env.model, rel, opt, spec)) // sanity outside the timer

	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b)
		}
	})
}

// BenchmarkQueryAdversarial runs the full adversarial mix — skew,
// correlation, and all-but-one-missing blocks — through a thresholded
// count on fresh engines per iteration. make bench-gate reads the
// sub-benchmark by its name, BenchmarkQueryAdversarial/adaptive.
func BenchmarkQueryAdversarial(b *testing.B) {
	env, rel := adversarialEnv(b, experiment.DefaultAdversarial(9, 360))
	spec := adversarialTopK(env, rel, 0)
	spec.Op, spec.K, spec.MinProb = QueryCount, 0, 0.5
	q, err := CompileQuery(env.model.Schema, spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := DeriveOptions{Method: BestAveraged(), Workers: 4, Gibbs: benchGibbs()}
	ctx := context.Background()
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := NewEngine(env.model, opt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Query(ctx, rel, q, QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
