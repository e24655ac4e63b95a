package derive

// Tests for the bounded engine caches: CacheEntries caps the block and
// CPD caches; eviction is counted in Stats and never changes the
// emitted stream, because every cached value is a deterministic function
// of the model and its key.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/relation"
)

// collect streams rel through e and returns the emitted items.
func collect(t *testing.T, e *Engine, rel *relation.Relation) []Item {
	t.Helper()
	var items []Item
	if err := e.Stream(context.Background(), rel, Pools{}, EmitFunc(func(it Item) error {
		items = append(items, it)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return items
}

// TestBoundedCachesDeterministic streams the same workload through an
// unbounded engine and through one whose caches hold almost nothing, and
// requires bit-identical output plus recorded evictions.
func TestBoundedCachesDeterministic(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 3000, 11)
	rel := dirtyRelation(t, inst, rng, 120)
	cfg := Config{
		Method:  bestAveraged(),
		Gibbs:   gibbs.Config{Samples: 40, BurnIn: 10, Method: bestAveraged(), Seed: 3},
		Workers: 2,
	}
	unbounded, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tinyCfg := cfg
	tinyCfg.CacheEntries = 2
	tiny, err := New(m, tinyCfg)
	if err != nil {
		t.Fatal(err)
	}

	want := collect(t, unbounded, rel)
	got := collect(t, tiny, rel)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded engine emitted a different stream")
	}
	// Stream again: the tiny caches cannot hold the workload, so the
	// second pass re-derives and evicts more; output must still match.
	got2 := collect(t, tiny, rel)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("bounded engine emitted a different stream on second pass")
	}

	st := tiny.Stats()
	if st.Evictions == 0 {
		t.Fatalf("tiny engine recorded no block evictions; Stats=%+v", st)
	}
	if ust := unbounded.Stats(); ust.Evictions != 0 {
		t.Fatalf("unbounded engine recorded %d evictions, want 0", ust.Evictions)
	}
}

// TestCPDStatsExposed checks the engine surfaces the shared CPD cache's
// counters and that the single-missing vote path populates it.
func TestCPDStatsExposed(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 13)
	rel := dirtyRelation(t, inst, rng, 60)
	e, err := New(m, Config{
		Method:  bestAveraged(),
		Gibbs:   gibbs.Config{Samples: 30, BurnIn: 5, Method: bestAveraged(), Seed: 9},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, e, rel)
	st := e.Stats()
	if st.CPDMisses == 0 {
		t.Fatalf("no CPD misses recorded; the shared cache is not wired in (Stats=%+v)", st)
	}
	if st.CPDHits == 0 {
		t.Fatalf("no CPD hits recorded across chain sweeps (Stats=%+v)", st)
	}
}

// TestSingleMissingSharesCPDCache checks the cross-path sharing claim: a
// vote served for a single-missing tuple seeds the CPD cache entry that a
// later identical probe hits.
func TestSingleMissingSharesCPDCache(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 17)
	tu := inst.Sample(rng)
	tu[0] = relation.Missing
	rel := relation.NewRelation(inst.Top.Schema())
	if err := rel.Append(tu); err != nil {
		t.Fatal(err)
	}
	e, err := New(m, Config{Method: bestAveraged(),
		Gibbs: gibbs.Config{Samples: 10, Method: bestAveraged(), Seed: 1}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	collect(t, e, rel)
	before := e.Stats()
	if before.CPDMisses == 0 {
		t.Fatalf("vote path did not populate the CPD cache")
	}
	// A chain over the same tuple probes the same (method, attr, evidence)
	// key once per sweep: each of its BurnIn+Samples probes must hit the
	// vote-seeded entry instead of re-voting.
	cfg := gibbs.Config{Samples: 5, BurnIn: 1, Method: bestAveraged(), Seed: 1, Cache: e.cpd}
	if _, _, err := gibbs.InferIndependent(m, cfg, tu); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.CPDHits != before.CPDHits+int64(cfg.BurnIn+cfg.Samples) {
		t.Fatalf("chain probe did not hit the vote-seeded entry: hits %d -> %d",
			before.CPDHits, after.CPDHits)
	}
	if after.CPDMisses != before.CPDMisses {
		t.Fatalf("chain re-voted a cached evidence state: misses %d -> %d",
			before.CPDMisses, after.CPDMisses)
	}
}
