// The datacleaning example measures imputation quality the way the paper's
// evaluation does, but on a census-style cleaning task: a ground-truth
// relation is generated, values are knocked out, the MRSL pipeline derives
// a probabilistic database, and the most probable completion of every block
// is compared with the hidden truth. The probabilistic output is also
// scored with KL divergence against the generating network, and the
// single-value imputation accuracy is compared across all four voting
// methods and a random-guess floor.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/baseline"
	"repro/internal/bn"
	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/vote"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run executes the example; factored out of main so tests can call it.
func run() error {
	rng := rand.New(rand.NewSource(5))

	// Ground truth generator: BN10 (6 attributes, cardinality 4) from the
	// paper's benchmark — a crown-shaped network with strong
	// parent-child correlations.
	top, err := bn.ByID("BN10")
	if err != nil {
		return err
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		return err
	}
	schema := top.Schema()

	// 20000 clean records for training; 2000 dirty records to repair.
	train := inst.SampleRelation(rng, 20000)
	model, err := repro.Learn(train, repro.LearnOptions{SupportThreshold: 0.002})
	if err != nil {
		return err
	}
	fmt.Printf("model: %d meta-rules (%s)\n", model.Size(), model.Stats.BuildTime)

	type dirty struct {
		truth  relation.Tuple
		broken relation.Tuple
	}
	var records []dirty
	dirtyRel := repro.NewRelation(schema)
	for i := 0; i < 2000; i++ {
		truth := inst.Sample(rng)
		broken := truth.Clone()
		k := 1 + rng.Intn(2) // 1 or 2 values lost
		for _, a := range rng.Perm(top.NumAttrs())[:k] {
			broken[a] = relation.Missing
		}
		records = append(records, dirty{truth: truth, broken: broken})
		if err := dirtyRel.Append(broken); err != nil {
			return err
		}
	}

	// Derive the probabilistic database over the dirty records and score
	// it block by block as it streams — no materialized database. Blocks
	// arrive in input order, but records are still matched by their
	// incomplete tuple's key (multiset semantics: records with identical
	// damage consume matching blocks one each), so the scoring does not
	// depend on emission order.
	pending := make(map[string][]int) // base key -> record indices
	for i, rec := range records {
		k := rec.broken.Key()
		pending[k] = append(pending[k], i)
	}
	matchRecord := func(b *repro.Block) (dirty, error) {
		k := b.Base.Key()
		idxs := pending[k]
		if len(idxs) == 0 {
			return dirty{}, fmt.Errorf("no record for block %v", b.Base)
		}
		rec := records[idxs[0]]
		pending[k] = idxs[1:]
		return rec, nil
	}
	var cellsRepaired, cellsCorrect, tuplesCorrect, blocks int
	var klSum float64
	eng, err := repro.NewEngine(model, repro.DeriveOptions{
		Method: repro.BestAveraged(),
		Gibbs: repro.GibbsOptions{
			Samples: 800, BurnIn: 100, Seed: 3, Method: repro.BestAveraged(),
		},
	})
	if err != nil {
		return err
	}
	err = eng.Derive(context.Background(), dirtyRel, repro.Pools{}, repro.EmitFunc(func(it repro.DeriveItem) error {
		if it.Certain() {
			return nil
		}
		b := it.Block
		blocks++
		rec, err := matchRecord(b)
		if err != nil {
			return err
		}

		// Repair = most probable alternative; score against truth.
		repair := b.MostProbable().Tuple
		allRight := true
		for a, v := range rec.broken {
			if v != relation.Missing {
				continue
			}
			cellsRepaired++
			if repair[a] == rec.truth[a] {
				cellsCorrect++
			} else {
				allRight = false
			}
		}
		if allRight {
			tuplesCorrect++
		}

		// Distribution quality: KL of the block's distribution vs the
		// exact conditional of the generating network.
		truthDist, err := inst.Conditional(rec.broken)
		if err != nil {
			return err
		}
		pred := truthDist.Clone()
		for j := range pred.P {
			pred.P[j] = 0
		}
		vals := make([]int, len(pred.Attrs))
		for _, alt := range b.Alts {
			for k, a := range pred.Attrs {
				vals[k] = alt.Tuple[a]
			}
			pred.P[pred.Index(vals)] = alt.Prob
		}
		pred.P.Smooth(dist.SmoothFloor)
		kl, err := dist.KLJoint(truthDist, pred)
		if err != nil {
			return err
		}
		klSum += kl
		return nil
	}))
	if err != nil {
		return err
	}
	fmt.Printf("repaired %d cells: %.1f%% of cells correct, %.1f%% of tuples fully correct\n",
		cellsRepaired,
		100*float64(cellsCorrect)/float64(cellsRepaired),
		100*float64(tuplesCorrect)/float64(blocks))
	fmt.Printf("mean KL(truth || derived block) = %.3f over %d blocks\n", klSum/float64(blocks), blocks)
	st := eng.Stats()
	fmt.Printf("engine caches: %d/%d single-missing voted (%.0f%% hit), %d/%d multi-missing inferred (%.0f%% hit)\n",
		st.VotesComputed, st.SingleTuples, 100*st.VoteHitRate(),
		st.GibbsComputed, st.MultiTuples, 100*st.GibbsHitRate())
	fmt.Printf("multi-missing tiers: %d solved exactly, %d Gibbs chains (%d points sampled)\n",
		st.ExactSolved, st.GibbsComputed-st.ExactSolved, st.PointsSampled)

	// Single-cell imputation shoot-out across voting methods, plus the
	// random floor (paper Table II's framing).
	fmt.Println("\nsingle-cell imputation accuracy by voting method:")
	methods := []struct {
		name string
		m    repro.Method
	}{
		{"all averaged", repro.AllAveraged()},
		{"all weighted", repro.AllWeighted()},
		{"best averaged", repro.BestAveraged()},
		{"best weighted", repro.BestWeighted()},
	}
	var randomFloor float64
	for _, mtd := range methods {
		var correct, total int
		for _, rec := range records {
			if rec.broken.NumMissing() != 1 {
				continue
			}
			attr := rec.broken.MissingAttrs()[0]
			d, err := vote.Infer(model, rec.broken, attr, mtd.m)
			if err != nil {
				return err
			}
			if d.ArgMax() == rec.truth[attr] {
				correct++
			}
			total++
		}
		fmt.Printf("  %-14s %.1f%% of %d\n", mtd.name, 100*float64(correct)/float64(total), total)
	}
	for _, rec := range records {
		if rec.broken.NumMissing() == 1 {
			p, err := baseline.RandomGuessTop1(schema, rec.broken)
			if err != nil {
				return err
			}
			randomFloor = p
			break
		}
	}
	fmt.Printf("  %-14s %.1f%%\n", "random guess", 100*randomFloor)
	return nil
}
