package repro

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bn"
	"repro/internal/derive"
	"repro/internal/relation"
)

// sameDatabase is requireSameDatabase as an error (safe to call from
// worker goroutines, which must not t.Fatal).
func sameDatabase(want, got *Database) error {
	if len(want.Certain) != len(got.Certain) || len(want.Blocks) != len(got.Blocks) {
		return fmt.Errorf("shape differs: %d/%d certain, %d/%d blocks",
			len(want.Certain), len(got.Certain), len(want.Blocks), len(got.Blocks))
	}
	for i := range want.Certain {
		if want.Certain[i].Key() != got.Certain[i].Key() {
			return fmt.Errorf("certain tuple %d differs", i)
		}
	}
	for i := range want.Blocks {
		wb, gb := want.Blocks[i], got.Blocks[i]
		if wb.Base.Key() != gb.Base.Key() || len(wb.Alts) != len(gb.Alts) {
			return fmt.Errorf("block %d shape differs", i)
		}
		for k := range wb.Alts {
			if wb.Alts[k].Prob != gb.Alts[k].Prob ||
				wb.Alts[k].Tuple.Key() != gb.Alts[k].Tuple.Key() {
				return fmt.Errorf("block %d alt %d differs: %v vs %v",
					i, k, wb.Alts[k], gb.Alts[k])
			}
		}
	}
	return nil
}

// soakOptions are the engine options of the soak tests. Chains are
// content-seeded, so outputs are independent of scheduling and of which
// request warmed the cache.
func soakOptions() DeriveOptions {
	return DeriveOptions{
		Method:  BestAveraged(),
		Workers: 2,
		Gibbs:   GibbsOptions{Samples: 120, BurnIn: 15, Seed: 19, Method: BestAveraged()},
	}
}

// soakFixture builds one model and several distinct relations that share
// some damage patterns (so concurrent requests contend for the same cache
// entries) and keep some private ones.
func soakFixture(t *testing.T, relations int) (*Model, []*Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Learn(inst.SampleRelation(rng, 2500), LearnOptions{SupportThreshold: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	nAttrs := top.NumAttrs()
	shared := make([]Tuple, 6)
	for i := range shared {
		tu := inst.Sample(rng)
		k := 1 + rng.Intn(2)
		for _, a := range rng.Perm(nAttrs)[:k] {
			tu[a] = relation.Missing
		}
		shared[i] = tu
	}
	rels := make([]*Relation, relations)
	for r := range rels {
		rel := NewRelation(top.Schema())
		private := inst.Sample(rng)
		private[r%nAttrs] = relation.Missing
		for i := 0; i < 40; i++ {
			var tu Tuple
			switch {
			case rng.Float64() < 0.3:
				tu = inst.Sample(rng)
			case rng.Float64() < 0.3:
				tu = private.Clone()
			default:
				tu = shared[rng.Intn(len(shared))].Clone()
			}
			if err := rel.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
		rels[r] = rel
	}
	return m, rels
}

// TestEngineConcurrentSoak is the serving-engine soak (run it under
// -race): many goroutines issue overlapping Derive calls over
// distinct relations sharing one engine. Every request's output must be
// bit-identical to a fresh single-request engine's, the shared caches
// must dedup across requests (each distinct pattern inferred once for the
// engine's lifetime), and the cache counters must be monotonic.
func TestEngineConcurrentSoak(t *testing.T) {
	const (
		numRelations = 5
		workersPer   = 3 // goroutines per relation
		iterations   = 2 // streams per goroutine
	)
	m, rels := soakFixture(t, numRelations)

	// Per-relation reference outputs from throwaway engines.
	expected := make([]*Database, numRelations)
	for r, rel := range rels {
		db, err := Derive(m, rel, soakOptions())
		if err != nil {
			t.Fatal(err)
		}
		expected[r] = db
	}

	eng, err := NewEngine(m, soakOptions())
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		snaps []EngineStats
		fails = make(chan error, numRelations*workersPer*iterations)
	)
	for r := 0; r < numRelations; r++ {
		for w := 0; w < workersPer; w++ {
			wg.Add(1)
			go func(r, w int) {
				defer wg.Done()
				for it := 0; it < iterations; it++ {
					c := derive.NewCollector(rels[r].Schema)
					// Vary the request sharding too; it must not matter.
					err := eng.Derive(context.Background(), rels[r], Pools{Workers: 1 + w + it}, c)
					if err != nil {
						fails <- fmt.Errorf("relation %d worker %d: %v", r, w, err)
						return
					}
					if err := sameDatabase(expected[r], c.Database()); err != nil {
						fails <- fmt.Errorf("relation %d worker %d iteration %d: not deterministic: %v", r, w, it, err)
						return
					}
					mu.Lock()
					snaps = append(snaps, eng.Stats())
					mu.Unlock()
				}
			}(r, w)
		}
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Error(err)
	}

	// Counters are monotonic in snapshot order.
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		if b.VotesComputed < a.VotesComputed || b.SingleTuples < a.SingleTuples ||
			b.GibbsComputed < a.GibbsComputed || b.MultiTuples < a.MultiTuples ||
			b.GibbsCacheHits < a.GibbsCacheHits || b.PointsSampled < a.PointsSampled ||
			b.Streams < a.Streams {
			t.Fatalf("cache counters are not monotonic: snapshot %d %+v -> %+v", i, a, b)
		}
	}

	// The shared caches deduped across every request: each distinct
	// pattern was inferred exactly once for the engine's lifetime, and
	// every tuple of every request was served.
	distinctSingle, distinctMulti := make(map[string]bool), make(map[string]bool)
	var singles, multis int64
	for _, rel := range rels {
		for _, tu := range rel.Tuples {
			switch {
			case tu.IsComplete():
			case tu.NumMissing() == 1:
				distinctSingle[tu.Key()] = true
				singles++
			default:
				distinctMulti[tu.Key()] = true
				multis++
			}
		}
	}
	runs := int64(workersPer * iterations)
	st := eng.Stats()
	if st.Streams != int64(numRelations)*runs {
		t.Errorf("streams = %d, want %d", st.Streams, int64(numRelations)*runs)
	}
	if st.VotesComputed != int64(len(distinctSingle)) {
		t.Errorf("votes computed = %d, want %d distinct patterns", st.VotesComputed, len(distinctSingle))
	}
	if st.SingleTuples != runs*singles {
		t.Errorf("single tuples served = %d, want %d", st.SingleTuples, runs*singles)
	}
	if st.GibbsComputed != int64(len(distinctMulti)) {
		t.Errorf("gibbs computed = %d, want %d distinct patterns", st.GibbsComputed, len(distinctMulti))
	}
	if st.MultiTuples != runs*multis {
		t.Errorf("multi tuples served = %d, want %d", st.MultiTuples, runs*multis)
	}
}

// TestHitRatesNeverNegative: prefetch pools run ahead of emitters, so a
// snapshot can show more patterns computed than tuples served; the rates
// clamp instead of going negative.
func TestHitRatesNeverNegative(t *testing.T) {
	st := EngineStats{SingleTuples: 1, VotesComputed: 5, MultiTuples: 1, GibbsComputed: 4}
	if got := st.VoteHitRate(); got != 0 {
		t.Errorf("VoteHitRate = %v, want 0 (clamped)", got)
	}
	if got := st.GibbsHitRate(); got != 0 {
		t.Errorf("GibbsHitRate = %v, want 0 (clamped)", got)
	}
}

// TestDeriveStreamSchemaMismatch: a relation whose schema is not the
// model's fails up front with a typed error, before emit ever runs.
func TestDeriveStreamSchemaMismatch(t *testing.T) {
	m, rel := matchmakingModel(t)

	// Same labels, different domain order: value codes disagree, so this
	// must be rejected (it is exactly the silent-corruption case).
	attrs := make([]Attribute, len(rel.Schema.Attrs))
	copy(attrs, rel.Schema.Attrs)
	attrs[1] = Attribute{Name: attrs[1].Name, Domain: []string{"BS", "HS", "MS"}}
	reordered, err := NewSchema(attrs)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewRelation(reordered)
	if err := bad.Append(Tuple{0, 0, Missing, 0}); err != nil {
		t.Fatal(err)
	}

	emitted := 0
	err = deriveStream(m, bad, DeriveOptions{}, EmitFunc(func(DeriveItem) error {
		emitted++
		return nil
	}))
	var mismatch *SchemaMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("stream error = %v, want *SchemaMismatchError", err)
	}
	if mismatch.Diff == "" || mismatch.Model == nil || mismatch.Data == nil {
		t.Errorf("mismatch error is missing detail: %+v", mismatch)
	}
	if emitted != 0 {
		t.Errorf("emit ran %d times before the schema check", emitted)
	}

	// Derive and the Engine path return the same typed error.
	if _, err := Derive(m, bad, DeriveOptions{}); !errors.As(err, &mismatch) {
		t.Errorf("Derive error = %v, want *SchemaMismatchError", err)
	}
	eng, err := NewEngine(m, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Derive(context.Background(), bad, Pools{}, derive.NewCollector(reordered)); !errors.As(err, &mismatch) {
		t.Errorf("Engine.Derive error = %v, want *SchemaMismatchError", err)
	}

	// Wrong attribute count fails the same way.
	twoCol, err := NewSchema(attrs[:2])
	if err != nil {
		t.Fatal(err)
	}
	short := NewRelation(twoCol)
	if err := short.Append(Tuple{Missing, 0}); err != nil {
		t.Fatal(err)
	}
	if err := deriveStream(m, short, DeriveOptions{}, EmitFunc(func(DeriveItem) error { return nil })); !errors.As(err, &mismatch) {
		t.Errorf("short schema error = %v, want *SchemaMismatchError", err)
	}

	// The matching schema still streams fine (control).
	if _, err := Derive(m, rel, DeriveOptions{Gibbs: GibbsOptions{Samples: 50, BurnIn: 5, Seed: 1}}); err != nil {
		t.Errorf("matching schema failed: %v", err)
	}
}

// TestDeriveNilRelation: the materializing Derive and the engine's one
// stream call return an error for a nil relation instead of panicking.
func TestDeriveNilRelation(t *testing.T) {
	m, _ := matchmakingModel(t)
	if _, err := Derive(m, nil, DeriveOptions{}); err == nil {
		t.Error("Derive of a nil relation returned no error")
	}
	eng, err := NewEngine(m, DeriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{nil, (*Relation)(nil), (*DatasetSnapshot)(nil)} {
		if err := eng.Derive(context.Background(), src, Pools{}, EmitFunc(func(DeriveItem) error { return nil })); err == nil {
			t.Errorf("Engine.Derive of a nil %T returned no error", src)
		}
	}
}

// TestEngineStatsSnapshot: Stats is a consistent snapshot usable while
// streams run; pdb invariants of a cache-served second derivation hold.
func TestEngineStatsSnapshot(t *testing.T) {
	m, rel := matchmakingModel(t)
	eng, err := NewEngine(m, DeriveOptions{
		Workers: 2,
		Gibbs:   GibbsOptions{Samples: 80, BurnIn: 10, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := collect(eng, rel)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Streams != 1 || st.VotesComputed == 0 || st.GibbsComputed == 0 {
		t.Errorf("unexpected stats after first stream: %+v", st)
	}
	second, err := collect(eng, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDatabase(first, second); err != nil {
		t.Errorf("cache-served rerun differs: %v", err)
	}
	st2 := eng.Stats()
	if st2.VotesComputed != st.VotesComputed || st2.GibbsComputed != st.GibbsComputed {
		t.Errorf("rerun recomputed cached patterns: %+v -> %+v", st, st2)
	}
	if st2.GibbsCacheHits <= st.GibbsCacheHits {
		t.Errorf("rerun did not hit the joint cache: %d -> %d", st.GibbsCacheHits, st2.GibbsCacheHits)
	}
	for _, b := range second.Blocks {
		if b.ProbSum() < 0.999999 || b.ProbSum() > 1.000001 {
			t.Errorf("block mass %v", b.ProbSum())
		}
	}
}
