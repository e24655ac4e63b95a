package repro

// End-to-end derivation benchmarks. The workload mirrors real dirty data:
// a mix of complete tuples, many duplicated single-missing tuples, and
// duplicated multi-missing tuples.
//
// BenchmarkDerive measures the sequential derivation exactly as the seed
// implemented it: one vote.Infer call per single-missing tuple (no
// memoization across duplicates) followed by the paper's tuple-DAG
// sampler (Algorithm 3) over the multi-missing tuples, materializing
// the whole database. BenchmarkDeriveParallel measures the streaming
// engine with its worker pools open: duplicates hit the shared vote
// cache, multi-missing tuples run one content-seeded chain each, blocks
// stream without materialization, and on multi-core hardware the pools
// add wall-clock parallelism on top. The two produce the same
// single-missing blocks; multi-missing blocks differ, because the
// tuple-DAG sampler and independent chains are different estimators.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bn"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/pdb"
	"repro/internal/relation"
	"repro/internal/vote"
)

type deriveBenchEnv struct {
	model *Model
	rel   *Relation
}

var (
	deriveBenchOnce sync.Once
	deriveBenchCtx  *deriveBenchEnv
)

// deriveBenchSetup builds the shared fixture: a BN9 model and a 600-tuple
// relation with ~20% complete tuples, 32 distinct single-missing damage
// patterns and 8 distinct multi-missing ones, heavily duplicated.
func deriveBenchSetup(b testing.TB) *deriveBenchEnv {
	b.Helper()
	deriveBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(77))
		top, err := bn.ByID("BN9")
		if err != nil {
			b.Fatal(err)
		}
		inst, err := bn.Instantiate(top, rng)
		if err != nil {
			b.Fatal(err)
		}
		train := inst.SampleRelation(rng, 8000)
		m, err := Learn(train, LearnOptions{SupportThreshold: 0.002})
		if err != nil {
			b.Fatal(err)
		}
		nAttrs := top.NumAttrs()
		var patterns []Tuple
		for i := 0; i < 32; i++ { // single-missing patterns
			tu := inst.Sample(rng)
			tu[rng.Intn(nAttrs)] = relation.Missing
			patterns = append(patterns, tu)
		}
		for i := 0; i < 8; i++ { // multi-missing patterns
			tu := inst.Sample(rng)
			for _, a := range rng.Perm(nAttrs)[:2] {
				tu[a] = relation.Missing
			}
			patterns = append(patterns, tu)
		}
		rel := NewRelation(top.Schema())
		for i := 0; i < 600; i++ {
			var tu Tuple
			if rng.Float64() < 0.2 {
				tu = inst.Sample(rng)
			} else {
				tu = patterns[rng.Intn(len(patterns))].Clone()
			}
			if err := rel.Append(tu); err != nil {
				b.Fatal(err)
			}
		}
		deriveBenchCtx = &deriveBenchEnv{model: m, rel: rel}
	})
	return deriveBenchCtx
}

func benchGibbs() GibbsOptions {
	return GibbsOptions{Samples: 200, BurnIn: 30, Seed: 31, Method: BestAveraged()}
}

// legacyDerive is the seed's sequential Derive, kept verbatim as the
// benchmark baseline: single-missing tuples are voted one at a time with
// no cross-tuple memoization, multi-missing tuples go through the
// workload-driven DAG sampler, and the whole database is materialized.
func legacyDerive(m *Model, rel *Relation, opt DeriveOptions) (*Database, error) {
	db := pdb.NewDatabase(rel.Schema)
	var multi []Tuple
	for _, t := range rel.Tuples {
		if t.IsComplete() {
			if err := db.AddCertain(t); err != nil {
				return nil, err
			}
		} else if t.NumMissing() > 1 {
			multi = append(multi, t)
		}
	}
	for _, t := range rel.Tuples {
		if t.IsComplete() || t.NumMissing() != 1 {
			continue
		}
		attr := t.MissingAttrs()[0]
		d, err := vote.Infer(m, t, attr, opt.Method)
		if err != nil {
			return nil, err
		}
		j, err := dist.NewJoint([]int{attr}, []int{m.Schema.Attrs[attr].Card()})
		if err != nil {
			return nil, err
		}
		copy(j.P, d)
		b, err := pdb.NewBlock(t, j, opt.MaxAlternatives)
		if err != nil {
			return nil, err
		}
		if err := db.AddBlock(b); err != nil {
			return nil, err
		}
	}
	if len(multi) > 0 {
		s, err := gibbs.New(m, opt.Gibbs.config())
		if err != nil {
			return nil, err
		}
		res, err := s.TupleDAGRun(multi)
		if err != nil {
			return nil, err
		}
		byKey := make(map[string]*Joint, len(res.Tuples))
		for i, t := range res.Tuples {
			byKey[t.Key()] = res.Dists[i]
		}
		for _, t := range multi {
			b, err := pdb.NewBlock(t, byKey[t.Key()], opt.MaxAlternatives)
			if err != nil {
				return nil, err
			}
			if err := db.AddBlock(b); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// BenchmarkDerive is the sequential baseline (the seed's algorithm).
func BenchmarkDerive(b *testing.B) {
	e := deriveBenchSetup(b)
	opt := DeriveOptions{Method: BestAveraged(), Gibbs: benchGibbs()}
	b.ResetTimer()
	var blocks int
	for i := 0; i < b.N; i++ {
		db, err := legacyDerive(e.model, e.rel, opt)
		if err != nil {
			b.Fatal(err)
		}
		blocks = len(db.Blocks)
	}
	b.ReportMetric(float64(blocks), "blocks")
}

// BenchmarkEngineConcurrent measures serving throughput of one long-lived
// engine under 1, 4, and 16 concurrent Derive requests over the
// shared fixture relation. The evidence-keyed caches are warmed by one
// full stream before the timer starts, so every measured iteration — b.N
// included — is the steady-state serving regime mrslserve runs in, where
// repeated damage patterns are answered from memory. Single runs still
// spread widely at small -benchtime (streams=1 has ranged over 2.7M–4.4M
// tuples/s on one 2-vCPU host), so compare them only in paired runs such
// as make bench-gate's. The tuples/s metric counts input tuples served
// across all streams.
func BenchmarkEngineConcurrent(b *testing.B) {
	for _, streams := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("streams=%d", streams), func(b *testing.B) {
			e := deriveBenchSetup(b)
			eng, err := NewEngine(e.model, DeriveOptions{
				Method:  BestAveraged(),
				Gibbs:   benchGibbs(),
				Workers: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the engine caches so iteration 1 measures steady-state
			// serving, not first-contact inference.
			if err := eng.Derive(context.Background(), e.rel, Pools{}, EmitFunc(func(DeriveItem) error { return nil })); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, streams)
				for s := 0; s < streams; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs <- eng.Derive(context.Background(), e.rel, Pools{}, EmitFunc(func(DeriveItem) error { return nil }))
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			served := float64(e.rel.Len()) * float64(streams) * float64(b.N)
			b.ReportMetric(served/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkEngineCold times first-contact inference, which
// BenchmarkEngineConcurrent's warm caches never reach: each iteration
// derives 64 distinct BN7 tuples with 3 of 10 values hidden (the served
// model and damage of perfbench's derive_cold) on a fresh engine with one
// worker per pool, so every tuple votes its kernel's local CPDs and
// solves it exactly. It fails unless EngineStats.ExactSolved counts every
// tuple, and reports input tuples per second.
func BenchmarkEngineCold(b *testing.B) {
	e := getEnv(b, "BN7", 20000, 0.01)
	rel := NewRelation(e.model.Schema)
	seen := map[string]bool{}
	for _, tu := range benchWorkload(e, 5, 80, 3) {
		if k := tu.Key(); !seen[k] && rel.Len() < 64 {
			seen[k] = true
			if err := rel.Append(tu); err != nil {
				b.Fatal(err)
			}
		}
	}
	opt := DeriveOptions{
		Method:  BestAveraged(),
		Gibbs:   GibbsOptions{Samples: 800, BurnIn: 100, Seed: 31, Method: BestAveraged()},
		Workers: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(e.model, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Derive(context.Background(), rel, Pools{}, EmitFunc(func(DeriveItem) error { return nil })); err != nil {
			b.Fatal(err)
		}
		if st := eng.Stats(); st.ExactSolved != int64(rel.Len()) {
			b.Fatalf("%d of %d tuples solved exactly", st.ExactSolved, rel.Len())
		}
	}
	b.ReportMetric(float64(rel.Len())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkDeriveParallel streams the same derivation through the engine
// with 8 voting workers and 8 Gibbs chains.
func BenchmarkDeriveParallel(b *testing.B) {
	e := deriveBenchSetup(b)
	opt := DeriveOptions{
		Method:  BestAveraged(),
		Gibbs:   benchGibbs(),
		Workers: 8,
	}
	b.ResetTimer()
	var blocks int
	for i := 0; i < b.N; i++ {
		blocks = 0
		err := deriveStream(e.model, e.rel, opt, EmitFunc(func(it DeriveItem) error {
			if !it.Certain() {
				blocks++
			}
			return nil
		}))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocks), "blocks")
}
