package derive

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/gibbs"
	"repro/internal/pdb"
	"repro/internal/relation"
	"repro/internal/vote"
)

func bestAveraged() vote.Method {
	return vote.Method{Choice: core.BestVoters, Scheme: vote.Averaged}
}

// learnBN builds a model over a catalog network for engine tests.
func learnBN(t testing.TB, id string, trainSize int, seed int64) (*core.Model, *bn.Instance, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, err := bn.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := inst.SampleRelation(rng, trainSize)
	m, err := core.Learn(train, core.Config{SupportThreshold: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	return m, inst, rng
}

// dirtyRelation builds a mixed workload: complete tuples, duplicated
// single-missing tuples, and duplicated multi-missing tuples.
func dirtyRelation(t testing.TB, inst *bn.Instance, rng *rand.Rand, n int) *relation.Relation {
	t.Helper()
	nAttrs := inst.Top.NumAttrs()
	rel := relation.NewRelation(inst.Top.Schema())
	// A limited set of damage patterns, so duplicates exercise the caches.
	patterns := make([]relation.Tuple, 8)
	for i := range patterns {
		tu := inst.Sample(rng)
		k := 1 + rng.Intn(2)
		for _, a := range rng.Perm(nAttrs)[:k] {
			tu[a] = relation.Missing
		}
		patterns[i] = tu
	}
	for i := 0; i < n; i++ {
		var tu relation.Tuple
		if rng.Float64() < 0.3 {
			tu = inst.Sample(rng)
		} else {
			tu = patterns[rng.Intn(len(patterns))].Clone()
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

func engineConfig(voteWorkers, gibbsWorkers int) Config {
	return Config{
		Method:       bestAveraged(),
		Gibbs:        gibbs.Config{Samples: 150, BurnIn: 20, Method: bestAveraged(), Seed: 7},
		VoteWorkers:  voteWorkers,
		GibbsWorkers: gibbsWorkers,
	}
}

func deriveWith(t *testing.T, m *core.Model, rel *relation.Relation, voteWorkers, gibbsWorkers int) *pdb.Database {
	t.Helper()
	e, err := New(m, engineConfig(voteWorkers, gibbsWorkers))
	if err != nil {
		t.Fatal(err)
	}
	db, err := e.Derive(rel)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func requireIdentical(t *testing.T, a, b *pdb.Database, label string) {
	t.Helper()
	if len(a.Certain) != len(b.Certain) || len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("%s: shape differs: %d/%d certain, %d/%d blocks",
			label, len(a.Certain), len(b.Certain), len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Certain {
		if a.Certain[i].Key() != b.Certain[i].Key() {
			t.Fatalf("%s: certain tuple %d differs", label, i)
		}
	}
	for i := range a.Blocks {
		ba, bb := a.Blocks[i], b.Blocks[i]
		if ba.Base.Key() != bb.Base.Key() || len(ba.Alts) != len(bb.Alts) {
			t.Fatalf("%s: block %d shape differs", label, i)
		}
		for k := range ba.Alts {
			if ba.Alts[k].Prob != bb.Alts[k].Prob || ba.Alts[k].Tuple.Key() != bb.Alts[k].Tuple.Key() {
				t.Fatalf("%s: block %d alternative %d differs (%v vs %v)",
					label, i, k, ba.Alts[k], bb.Alts[k])
			}
		}
	}
}

// TestDeriveDeterministicAcrossWorkerCounts is the engine's core contract:
// the derived database is bit-identical for every combination of voting
// pool size and gibbs worker count (the parallel chains are seeded per
// tuple, voting is deterministic, and emission is input-ordered). Run it
// under -race to also exercise the cache synchronization.
func TestDeriveDeterministicAcrossWorkerCounts(t *testing.T) {
	m, inst, rng := learnBN(t, "BN9", 3000, 41)
	rel := dirtyRelation(t, inst, rng, 120)

	base := deriveWith(t, m, rel, 1, 2)
	for _, workers := range []int{2, 8} {
		got := deriveWith(t, m, rel, workers, 2)
		requireIdentical(t, base, got, fmt.Sprintf("voteWorkers=%d", workers))
	}
	// Every gibbs worker count is interchangeable, 0 (GOMAXPROCS)
	// included: chains are seeded by tuple content, not by position or
	// pool size.
	for _, workers := range []int{0, 1, 4, 8} {
		got := deriveWith(t, m, rel, 4, workers)
		requireIdentical(t, base, got, fmt.Sprintf("gibbsWorkers=%d", workers))
	}
}

// tieredRelation builds a relation whose multi-missing tuples fall on
// both tiers of gibbs.Infer under engineConfig on BN10 (six attributes
// of four values): two or three hidden values need at most 48 local CPDs
// and are solved exactly, five need 1,280, more than the chain's 170
// sweeps draw, and run chains.
func tieredRelation(t testing.TB, inst *bn.Instance, rng *rand.Rand, n int) *relation.Relation {
	t.Helper()
	rel := relation.NewRelation(inst.Top.Schema())
	patterns := make([]relation.Tuple, 8)
	for i := range patterns {
		tu := inst.Sample(rng)
		for _, a := range rng.Perm(len(tu))[:[]int{1, 2, 3, 5}[i%4]] {
			tu[a] = relation.Missing
		}
		patterns[i] = tu
	}
	for i := 0; i < n; i++ {
		tu := patterns[rng.Intn(len(patterns))].Clone()
		if i%5 == 0 {
			tu = inst.Sample(rng)
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// TestBothTiersBitIdentical: with exact solves and chains in one
// relation, the derived stream is bit-identical across Gibbs worker
// counts, cache bounds down to one entry, and a dataset snapshot stream.
func TestBothTiersBitIdentical(t *testing.T) {
	m, inst, rng := learnBN(t, "BN10", 3000, 29)
	rel := tieredRelation(t, inst, rng, 60)
	ref, err := New(m, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := collect(t, ref, rel)
	if st := ref.Stats(); st.ExactSolved == 0 || st.GibbsComputed == st.ExactSolved {
		t.Fatalf("%d of %d joints solved exactly: the fixture does not cover both tiers",
			st.ExactSolved, st.GibbsComputed)
	}
	for _, workers := range []int{0, 1, 4, 8} {
		for _, entries := range []int{0, 1} {
			cfg := engineConfig(2, workers)
			cfg.CacheEntries = entries
			e, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("gibbsWorkers=%d cacheEntries=%d", workers, entries)
			requireItemsIdentical(t, collect(t, e, rel), want, label)
			ds, err := e.RegisterDataset(rel)
			if err != nil {
				t.Fatal(err)
			}
			requireItemsIdentical(t, collectSnapshot(t, e, ds), want, label+" snapshot")
		}
	}
}

// TestStreamMatchesCollected: the streamed items, collected by hand in
// callback order, reproduce Engine.Derive exactly — certain tuples and
// blocks in input order.
func TestStreamMatchesCollected(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 43)
	rel := dirtyRelation(t, inst, rng, 80)

	e, err := New(m, engineConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	streamed := pdb.NewDatabase(rel.Schema)
	lastIndex := -1
	err = e.Stream(rel, func(it Item) error {
		if it.Index <= lastIndex {
			t.Fatalf("item %d emitted after %d: stream is not input-ordered", it.Index, lastIndex)
		}
		lastIndex = it.Index
		if it.Certain() {
			return streamed.AddCertain(it.Tuple)
		}
		if it.Tuple.Key() != it.Block.Base.Key() {
			t.Fatalf("item %d: block base %v does not match tuple %v", it.Index, it.Block.Base, it.Tuple)
		}
		return streamed.AddBlock(it.Block)
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastIndex != rel.Len()-1 {
		t.Fatalf("last emitted index = %d, want %d", lastIndex, rel.Len()-1)
	}

	collected := deriveWith(t, m, rel, 4, 2)
	requireIdentical(t, streamed, collected, "stream vs collect")
}

// TestVoteCacheDedup: distinct single-missing evidence patterns are voted
// exactly once; duplicates hit the shared cache.
func TestVoteCacheDedup(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 47)
	rel := relation.NewRelation(inst.Top.Schema())
	distinctKeys := make(map[string]bool)
	singles := 0
	for i := 0; i < 60; i++ {
		tu := inst.Sample(rng)
		tu[rng.Intn(3)] = relation.Missing // few patterns, many duplicates
		distinctKeys[tu.Key()] = true
		singles++
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}

	e, err := New(m, engineConfig(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Derive(rel); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.VotesComputed != int64(len(distinctKeys)) {
		t.Errorf("votes computed = %d, want %d distinct patterns", st.VotesComputed, len(distinctKeys))
	}
	if st.SingleTuples != int64(singles) {
		t.Errorf("single tuples served = %d, want %d", st.SingleTuples, singles)
	}
	wantRate := float64(singles-len(distinctKeys)) / float64(singles)
	if got := st.VoteHitRate(); got != wantRate {
		t.Errorf("vote hit rate = %v, want %v", got, wantRate)
	}

	// A second run over the same relation is fully cache-served.
	if _, err := e.Derive(rel); err != nil {
		t.Fatal(err)
	}
	if st2 := e.Stats(); st2.VotesComputed != st.VotesComputed {
		t.Errorf("engine reuse recomputed votes: %d -> %d", st.VotesComputed, st2.VotesComputed)
	}
}

// TestGibbsCacheAcrossStreams: multi-missing joints persist in the engine
// across Stream calls.
func TestGibbsCacheAcrossStreams(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 1500, 53)
	rel := relation.NewRelation(inst.Top.Schema())
	tu := inst.Sample(rng)
	tu[0], tu[1] = relation.Missing, relation.Missing
	for i := 0; i < 3; i++ {
		if err := rel.Append(tu.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(m, engineConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Derive(rel); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.GibbsComputed != 1 {
		t.Fatalf("gibbs computed = %d, want 1 (duplicates deduped)", st.GibbsComputed)
	}
	if _, err := e.Derive(rel); err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.GibbsComputed != 1 {
		t.Errorf("engine reuse re-sampled: computed = %d", st2.GibbsComputed)
	}
	if st2.GibbsCacheHits <= st.GibbsCacheHits {
		t.Errorf("second run should hit the joint cache (hits %d -> %d)",
			st.GibbsCacheHits, st2.GibbsCacheHits)
	}
}

// TestEmitErrorStopsStream: a failing callback aborts the stream with its
// error and the engine shuts its workers down cleanly.
func TestEmitErrorStopsStream(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 1500, 59)
	rel := dirtyRelation(t, inst, rng, 50)
	e, err := New(m, engineConfig(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := fmt.Errorf("stop here")
	emitted := 0
	err = e.Stream(rel, func(Item) error {
		emitted++
		if emitted == 5 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("Stream error = %v, want sentinel", err)
	}
	if emitted != 5 {
		t.Errorf("emitted %d items after error, want 5", emitted)
	}
}

// TestEmptyAndCompleteRelations: degenerate inputs stream cleanly.
func TestEmptyAndCompleteRelations(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 1000, 61)
	e, err := New(m, engineConfig(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	empty := relation.NewRelation(inst.Top.Schema())
	db, err := e.Derive(empty)
	if err != nil || len(db.Certain) != 0 || len(db.Blocks) != 0 {
		t.Errorf("empty relation: %v, %v", db, err)
	}
	complete := relation.NewRelation(inst.Top.Schema())
	for i := 0; i < 5; i++ {
		if err := complete.Append(inst.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	db, err = e.Derive(complete)
	if err != nil || len(db.Certain) != 5 || len(db.Blocks) != 0 {
		t.Errorf("complete relation: %d certain %d blocks, %v",
			len(db.Certain), len(db.Blocks), err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil model should fail")
	}
	m, _, _ := learnBN(t, "BN8", 500, 67)
	e, err := New(m, engineConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Stream(nil, func(Item) error { return nil }); err == nil {
		t.Error("nil relation should fail")
	}
}

// TestNewRejectsGibbsConfigChainsReject: an engine that no chain can
// serve fails at construction, naming the field, instead of failing
// every multi-missing tuple above the exact tier's rule at request time.
func TestNewRejectsGibbsConfigChainsReject(t *testing.T) {
	m, _, _ := learnBN(t, "BN8", 500, 67)
	for _, samples := range []int{0, -5} {
		cfg := engineConfig(1, 1)
		cfg.Gibbs.Samples = samples
		_, err := New(m, cfg)
		if err == nil || !strings.Contains(err.Error(), "Samples") {
			t.Errorf("Samples=%d: New error = %v, want one naming Samples", samples, err)
		}
	}
}
