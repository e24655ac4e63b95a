package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bn"
	"repro/internal/derive"
	"repro/internal/gibbs"
	"repro/internal/relation"
)

// DerivePoint is one measurement of the streaming derivation engine at a
// worker count.
type DerivePoint struct {
	Network string
	Workers int
	// WallSec is the end-to-end wall-clock time of one streamed
	// derivation of the workload relation.
	WallSec float64
	// Speedup is relative to the first worker count measured.
	Speedup float64
	// VoteHitRate is the fraction of single-missing input tuples served
	// by the shared memo cache rather than voted afresh (duplicates in
	// the workload).
	VoteHitRate float64
	// Blocks is the number of blocks streamed (sanity: identical across
	// worker counts).
	Blocks int
}

// buildDirtyRelation assembles a derivation workload with the duplicate
// structure real dirty data has: complete tuples pass through, and the
// incomplete tuples repeat a limited set of damage patterns, so the
// engine's evidence-keyed caches have duplicates to absorb.
func buildDirtyRelation(env *Env, rng *rand.Rand, size, patterns int) (*relation.Relation, error) {
	nAttrs := env.Top.NumAttrs()
	rel := relation.NewRelation(env.Train.Schema)
	distinct := make([]relation.Tuple, 0, patterns)
	for i := 0; i < patterns; i++ {
		tu := env.Test[i%len(env.Test)].Clone()
		k := 1 + rng.Intn(2) // 1 or 2 missing values
		for _, a := range rng.Perm(nAttrs)[:k] {
			tu[a] = relation.Missing
		}
		distinct = append(distinct, tu)
	}
	for i := 0; i < size; i++ {
		var tu relation.Tuple
		switch {
		case rng.Float64() < 0.3: // complete pass-through tuple
			tu = env.Test[rng.Intn(len(env.Test))].Clone()
		default: // duplicate of one of the damage patterns
			tu = distinct[rng.Intn(len(distinct))].Clone()
		}
		if err := rel.Append(tu); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// RunAblationDerive measures the streaming derivation engine
// (derive.Engine) end to end on a duplicate-heavy dirty relation at
// several worker counts. The engine's independent chains make the output
// bit-identical for every worker count, so the speedup column isolates
// parallelism; only wall-clock time varies across rows.
func RunAblationDerive(opt Options, networks []string, workerCounts []int) ([]DerivePoint, *Table, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if len(networks) == 0 {
		networks = []string{"BN9"}
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	var points []DerivePoint
	for _, id := range networks {
		top, err := bn.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		env, err := MakeEnv(top, opt, 0, 0, opt.TrainSize)
		if err != nil {
			return nil, nil, err
		}
		m, err := env.Learn(opt.Support, opt.MaxItemsets)
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(seedFor(opt.Seed, "derive:"+id)))
		size := opt.WorkloadSizes[len(opt.WorkloadSizes)-1] * 8
		rel, err := buildDirtyRelation(env, rng, size, 12)
		if err != nil {
			return nil, nil, err
		}
		var base float64
		for _, workers := range workerCounts {
			eng, err := derive.New(m, derive.Config{
				Method: defaultMethod(),
				Gibbs: gibbs.Config{
					Samples: opt.GibbsSamples,
					BurnIn:  opt.GibbsBurnIn,
					Method:  defaultMethod(),
					Seed:    seedFor(opt.Seed, "deriverng:"+id),
				},
				Workers: workers,
			})
			if err != nil {
				return nil, nil, err
			}
			blocks := 0
			start := time.Now()
			err = eng.Stream(context.Background(), rel, derive.Pools{}, derive.EmitFunc(func(it derive.Item) error {
				if !it.Certain() {
					blocks++
				}
				return nil
			}))
			if err != nil {
				return nil, nil, err
			}
			sec := time.Since(start).Seconds()
			if workers == workerCounts[0] {
				base = sec
			}
			speedup := 0.0
			if sec > 0 {
				speedup = base / sec
			}
			points = append(points, DerivePoint{
				Network: id, Workers: workers, WallSec: sec, Speedup: speedup,
				VoteHitRate: eng.Stats().VoteHitRate(), Blocks: blocks,
			})
			opt.logf("ablation-derive: %s workers=%d %.3fs (%d blocks)", id, workers, sec, blocks)
		}
	}
	t := &Table{
		Title:  "Ablation: streaming derivation engine (Engine.Derive)",
		Header: []string{"network", "workers", "time (s)", "speedup", "vote hit rate", "blocks"},
	}
	for _, p := range points {
		t.AddRow(p.Network, p.Workers, p.WallSec, p.Speedup, fmt.Sprintf("%.2f", p.VoteHitRate), p.Blocks)
	}
	return points, t, nil
}
