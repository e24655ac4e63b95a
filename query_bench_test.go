package repro

// BenchmarkQuerySelective measures the query subsystem's reason to
// exist: a selective count over the standard derivation workload,
// answered through Engine.Query's evidence- and bound-based pruning,
// against the same answer computed by deriving every block and filtering
// the stream. Every iteration runs on a fresh engine, so the gap is
// pruning — tuples never inferred — not cache warmth; the two paths are
// asserted bit-identical before the timer starts.

import (
	"context"
	"testing"

	"repro/internal/relation"
)

func BenchmarkQuerySelective(b *testing.B) {
	env := deriveBenchSetup(b)
	opt := DeriveOptions{Method: BestAveraged(), Workers: 4, Gibbs: benchGibbs()}

	// A selective conjunction: the first complete tuple's values on its
	// two most selective attributes (the ones whose value is rarest in
	// the workload), so most damage patterns are refuted by their
	// evidence alone.
	var w Tuple
	for _, t := range env.rel.Tuples {
		if t.IsComplete() {
			w = t
			break
		}
	}
	nAttrs := env.model.Schema.NumAttrs()
	freq := make([]int, nAttrs)
	for _, t := range env.rel.Tuples {
		for a := 0; a < nAttrs; a++ {
			if t[a] == w[a] {
				freq[a]++
			}
		}
	}
	a1, a2 := 0, 1
	for a := 0; a < nAttrs; a++ {
		switch {
		case freq[a] < freq[a1]:
			a1, a2 = a, a1
		case a != a1 && freq[a] < freq[a2]:
			a2 = a
		}
	}
	preds := []QueryPred{
		{Attr: a1, Cmp: QueryEq, Value: w[a1]},
		{Attr: a2, Cmp: QueryEq, Value: w[a2]},
	}
	q, err := CompileQuery(env.model.Schema, QuerySpec{Op: QueryCount, Preds: preds})
	if err != nil {
		b.Fatal(err)
	}
	matches := func(t Tuple) bool { return t[a1] == w[a1] && t[a2] == w[a2] }
	ctx := context.Background()

	queryOnce := func() (*QueryResult, error) {
		eng, err := NewEngine(env.model, opt)
		if err != nil {
			return nil, err
		}
		return eng.Query(ctx, env.rel, q, QueryOptions{})
	}
	filterOnce := func() (float64, error) {
		eng, err := NewEngine(env.model, opt)
		if err != nil {
			return 0, err
		}
		var expected float64
		err = eng.Derive(context.Background(), env.rel, Pools{}, EmitFunc(func(it DeriveItem) error {
			if it.Certain() {
				if matches(it.Tuple) {
					expected++
				}
				return nil
			}
			// Per-tuple satisfaction probability, then fold — the same
			// association the evaluator uses, so the comparison is
			// bit-exact.
			var p float64
			for _, a := range it.Block.Alts {
				if matches(a.Tuple) {
					p += a.Prob
				}
			}
			expected += p
			return nil
		}))
		return expected, err
	}

	// Sanity outside the timer: identical answers, genuine pruning.
	res, err := queryOnce()
	if err != nil {
		b.Fatal(err)
	}
	full, err := filterOnce()
	if err != nil {
		b.Fatal(err)
	}
	if res.Expected != full {
		b.Fatalf("query answer %v differs from derive-then-filter %v", res.Expected, full)
	}
	if res.Counters.Pruned == 0 || res.Counters.Derived+res.Counters.Bounded >= res.Counters.Scanned {
		b.Fatalf("workload is not selective: %+v", res.Counters)
	}

	b.Run("engine-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queryOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive-then-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := filterOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// boundedQueryFixture builds the multi-missing-heavy workload behind
// BenchmarkQueryPlanner and BenchmarkQueryBounded: the standard bench
// model, a relation where half the tuples miss both predicate
// attributes (drawn from a small pattern pool), and a selective
// thresholded count whose predicates carry the workload's two rarest
// attribute values.
func boundedQueryFixture(b *testing.B) (*deriveBenchEnv, *Relation, *CompiledQuery, []QueryPred) {
	env := deriveBenchSetup(b)
	s := env.model.Schema

	// The two attributes whose rarest values are the most selective
	// equality predicates the workload supports.
	nAttrs := s.NumAttrs()
	freq := make([][]int, nAttrs)
	for a := range freq {
		freq[a] = make([]int, s.Attrs[a].Card())
	}
	complete := 0
	for _, t := range env.rel.Tuples {
		if !t.IsComplete() {
			continue
		}
		complete++
		for a, v := range t {
			freq[a][v]++
		}
	}
	type rare struct{ attr, val, count int }
	best := rare{attr: -1}
	second := rare{attr: -1}
	for a := range freq {
		r := rare{attr: a, val: 0, count: complete + 1}
		for v, c := range freq[a] {
			if c > 0 && c < r.count {
				r.val, r.count = v, c
			}
		}
		switch {
		case best.attr < 0 || r.count < best.count:
			best, second = r, best
		case second.attr < 0 || r.count < second.count:
			second = r
		}
	}

	// Half the relation misses both predicate attributes: the tuples the
	// bound engine must decide without sampling.
	patterns := make([]Tuple, 12)
	pi := 0
	for _, t := range env.rel.Tuples {
		if !t.IsComplete() {
			continue
		}
		tu := t.Clone()
		tu[best.attr], tu[second.attr] = relation.Missing, relation.Missing
		patterns[pi%len(patterns)] = tu
		pi++
		if pi >= len(patterns) {
			break
		}
	}
	rel := NewRelation(s)
	i := 0
	for _, t := range env.rel.Tuples {
		if !t.IsComplete() {
			continue
		}
		var tu Tuple
		if i%2 == 0 {
			tu = t
		} else {
			tu = patterns[i%len(patterns)]
		}
		if err := rel.Append(tu); err != nil {
			b.Fatal(err)
		}
		i++
	}

	preds := []QueryPred{
		{Attr: best.attr, Cmp: QueryEq, Value: best.val},
		{Attr: second.attr, Cmp: QueryEq, Value: second.val},
	}
	q, err := CompileQuery(s, QuerySpec{Op: QueryCount, Preds: preds, MinProb: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	return env, rel, q, preds
}

// boundedOpts is the engine configuration of the bounded-query
// benchmarks: enough samples for tight dissociation intervals.
func boundedOpts() DeriveOptions {
	return DeriveOptions{
		Method:  BestAveraged(),
		Workers: 4,
		Gibbs:   GibbsOptions{Samples: 800, BurnIn: 50, Seed: 31, Method: BestAveraged()},
	}
}

// BenchmarkQueryPlanner measures plan compilation alone on a warm
// engine: tuple classification, selectivity ordering, and the
// dissociation intervals served from the shared interval cache.
func BenchmarkQueryPlanner(b *testing.B) {
	env, rel, q, _ := boundedQueryFixture(b)
	ctx := context.Background()
	eng, err := NewEngine(env.model, boundedOpts())
	if err != nil {
		b.Fatal(err)
	}
	// Warm the interval and CPD caches once; the steady-state planner is
	// what serving pays per query.
	if _, err := eng.Query(ctx, rel, q, QueryOptions{PlanOnly: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, rel, q, QueryOptions{PlanOnly: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBounded measures the bound engine's reason to exist: a
// selective thresholded count over a multi-missing-heavy workload,
// answered through dissociation intervals, against deriving every block
// and filtering. Every iteration runs on a fresh engine, so the gap is
// chains never run — not cache warmth; the two paths are asserted
// bit-identical (and the bounds genuinely decisive) before the timer
// starts.
func BenchmarkQueryBounded(b *testing.B) {
	env, rel, q, preds := boundedQueryFixture(b)
	ctx := context.Background()
	matches := func(t Tuple) bool {
		for _, p := range preds {
			if t[p.Attr] != p.Value { // the fixture's predicates are equalities
				return false
			}
		}
		return true
	}

	queryOnce := func() (*QueryResult, error) {
		eng, err := NewEngine(env.model, boundedOpts())
		if err != nil {
			return nil, err
		}
		return eng.Query(ctx, rel, q, QueryOptions{})
	}
	filterOnce := func() (int64, error) {
		eng, err := NewEngine(env.model, boundedOpts())
		if err != nil {
			return 0, err
		}
		var count int64
		err = eng.Derive(context.Background(), rel, Pools{}, EmitFunc(func(it DeriveItem) error {
			var p float64
			if it.Certain() {
				if matches(it.Tuple) {
					p = 1
				}
			} else {
				for _, a := range it.Block.Alts {
					if matches(a.Tuple) {
						p += a.Prob
					}
				}
			}
			if p >= q.MinProb() {
				count++
			}
			return nil
		}))
		return count, err
	}

	// Sanity outside the timer: identical answers, and the bounds decide
	// at least half the multi-missing tuples without sampling.
	res, err := queryOnce()
	if err != nil {
		b.Fatal(err)
	}
	full, err := filterOnce()
	if err != nil {
		b.Fatal(err)
	}
	if res.Count != full {
		b.Fatalf("bounded count %d differs from derive-then-filter %d", res.Count, full)
	}
	var multi int64
	for _, t := range rel.Tuples {
		if t.NumMissing() > 1 {
			multi++
		}
	}
	if multi == 0 || res.Counters.Derived*2 > multi {
		b.Fatalf("bounds not decisive: derived %d of %d multi-missing tuples", res.Counters.Derived, multi)
	}

	b.Run("bounded-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := queryOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("derive-then-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := filterOnce(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
