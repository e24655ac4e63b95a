package repro

import (
	"context"
	"testing"
)

// BenchmarkQueryLiveWarm times warm reads of a live dataset, the path
// perfbench's query_live serves once its set-up reads have run: each
// iteration takes the dataset's snapshot and evaluates it, once per
// query_live shape — a thresholded count, a topk at k=10, a thresholded
// exists and a groupby — on an engine whose caches hold every block
// the reads resolve. The dataset is the shared fixture relation with an
// observation applied to every fourth incomplete tuple, so its snapshot
// carries conditioned blocks. The benchmark fails if a timed read
// infers anything.
func BenchmarkQueryLiveWarm(b *testing.B) {
	env := deriveBenchSetup(b)
	eng, err := NewEngine(env.model, boundedOpts())
	if err != nil {
		b.Fatal(err)
	}
	ds, err := eng.RegisterDataset(env.rel)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i, d := range watchDeltas(b, eng, env.rel) {
		if i%4 != 0 {
			continue
		}
		if _, err := ds.Observe(ctx, d.index, d.attr, d.val); err != nil {
			b.Fatal(err)
		}
	}
	var queries []*CompiledQuery
	for _, spec := range []QuerySpec{
		{Op: QueryCount, MinProb: 0.5, Preds: []QueryPred{{Attr: 1, Cmp: QueryEq, Value: 1}, {Attr: 3, Cmp: QueryGe, Value: 1}}},
		{Op: QueryTopK, K: 10, Preds: []QueryPred{{Attr: 2, Cmp: QueryEq, Value: 0}, {Attr: 4, Cmp: QueryLe, Value: 0}}},
		{Op: QueryExists, MinProb: 0.9, Preds: []QueryPred{{Attr: 5, Cmp: QueryEq, Value: 1}, {Attr: 0, Cmp: QueryEq, Value: 0}}},
		{Op: QueryGroupBy, GroupBy: env.model.Schema.Attrs[5].Name, Preds: []QueryPred{{Attr: 0, Cmp: QueryEq, Value: 1}}},
	} {
		q, err := CompileQuery(env.model.Schema, spec)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	read := func() {
		for _, q := range queries {
			snap, err := ds.Snapshot(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Query(ctx, snap, q, QueryOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	read() // resolves every block the reads need
	inferred := func() int64 {
		st := eng.Stats()
		return st.VotesComputed + st.GibbsComputed
	}
	before := inferred()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
	b.StopTimer()
	if n := inferred() - before; n != 0 {
		b.Fatalf("warm reads inferred %d blocks, want none", n)
	}
}
