package repro

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bn"
	"repro/internal/derive"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// deriveStream derives rel on a throwaway engine, as the package-level
// Derive does, and streams it into sink.
func deriveStream(m *Model, rel *Relation, opt DeriveOptions, sink Sink) error {
	e, err := NewEngine(m, opt)
	if err != nil {
		return err
	}
	return e.Derive(context.Background(), rel, Pools{}, sink)
}

// collect materializes e's stream of src into a database.
func collect(e *Engine, src Source) (*Database, error) {
	c := derive.NewCollector(e.eng.Model().Schema)
	if err := e.Derive(context.Background(), src, Pools{}, c); err != nil {
		return nil, err
	}
	return c.Database(), nil
}

// collectStream materializes a derivation stream by hand, exactly as the
// Derive collector does.
func collectStream(t *testing.T, m *Model, rel *Relation, opt DeriveOptions) *Database {
	t.Helper()
	db := pdb.NewDatabase(rel.Schema)
	err := deriveStream(m, rel, opt, EmitFunc(func(it DeriveItem) error {
		if it.Certain() {
			return db.AddCertain(it.Tuple)
		}
		return db.AddBlock(it.Block)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func requireSameDatabase(t *testing.T, want, got *Database, label string) {
	t.Helper()
	if len(want.Certain) != len(got.Certain) || len(want.Blocks) != len(got.Blocks) {
		t.Fatalf("%s: shape differs: %d/%d certain, %d/%d blocks",
			label, len(want.Certain), len(got.Certain), len(want.Blocks), len(got.Blocks))
	}
	for i := range want.Certain {
		if want.Certain[i].Key() != got.Certain[i].Key() {
			t.Fatalf("%s: certain tuple %d differs", label, i)
		}
	}
	for i := range want.Blocks {
		wb, gb := want.Blocks[i], got.Blocks[i]
		if wb.Base.Key() != gb.Base.Key() || len(wb.Alts) != len(gb.Alts) {
			t.Fatalf("%s: block %d shape differs", label, i)
		}
		for k := range wb.Alts {
			if wb.Alts[k].Prob != gb.Alts[k].Prob ||
				wb.Alts[k].Tuple.Key() != gb.Alts[k].Tuple.Key() {
				t.Fatalf("%s: block %d alt %d differs: %v vs %v",
					label, i, k, wb.Alts[k], gb.Alts[k])
			}
		}
	}
}

// TestDeriveStreamEquivalenceMatchmaking: on the quickstart matchmaking
// relation, the collected stream with a parallel voting pool is
// bit-identical to the sequential Derive result at the same seed.
func TestDeriveStreamEquivalenceMatchmaking(t *testing.T) {
	m, rel := matchmakingModel(t)
	opt := DeriveOptions{
		Method: BestAveraged(),
		Gibbs:  GibbsOptions{Samples: 300, BurnIn: 30, Seed: 11},
	}
	sequential, err := Derive(m, rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	par := opt
	par.Workers = 8
	requireSameDatabase(t, sequential, collectStream(t, m, rel, par), "matchmaking")
}

// TestDeriveStreamEquivalenceLarge: same equivalence on a generated
// 1000-tuple relation mixing complete tuples with duplicated single- and
// multi-missing damage patterns.
func TestDeriveStreamEquivalenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	top, err := bn.ByID("BN10")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := inst.SampleRelation(rng, 4000)
	m, err := Learn(train, LearnOptions{SupportThreshold: 0.005})
	if err != nil {
		t.Fatal(err)
	}

	nAttrs := top.NumAttrs()
	patterns := make([]Tuple, 10)
	for i := range patterns {
		tu := inst.Sample(rng)
		k := 1 + rng.Intn(2)
		for _, a := range rng.Perm(nAttrs)[:k] {
			tu[a] = relation.Missing
		}
		patterns[i] = tu
	}
	rel := NewRelation(top.Schema())
	for i := 0; i < 1000; i++ {
		var tu Tuple
		if rng.Float64() < 0.4 {
			tu = inst.Sample(rng)
		} else {
			tu = patterns[rng.Intn(len(patterns))].Clone()
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}

	opt := DeriveOptions{
		Method:          BestAveraged(),
		Gibbs:           GibbsOptions{Samples: 200, BurnIn: 20, Seed: 9},
		MaxAlternatives: 6,
	}
	sequential, err := Derive(m, rel, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sequential.Certain)+len(sequential.Blocks) != 1000 {
		t.Fatalf("derived %d certain + %d blocks, want 1000 total",
			len(sequential.Certain), len(sequential.Blocks))
	}
	par := opt
	par.Workers = 8
	requireSameDatabase(t, sequential, collectStream(t, m, rel, par), "1k relation")
}
