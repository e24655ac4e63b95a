// The lazyquery example demonstrates the paper's future-work proposal
// (Section VIII): lazy, query-targeted inference with partial
// materialization. Engine.Query answers a structured query over a large
// incomplete relation without deriving it: the planner classifies every
// tuple against the query's predicates — tuples whose known values
// refute (or, when complete, satisfy) them cost nothing, single-missing
// tuples cost one voted CPD lookup, and only open multi-missing tuples
// run a Gibbs chain — and the engine's caches keep what was inferred for
// later queries. The answer is bit-identical to deriving the full
// probabilistic database with the same options, which the example
// checks.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
	"repro/internal/bn"
	"repro/internal/relation"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// options are the engine options of both the lazy and the eager path, so
// the two answers can be compared bit for bit.
func options() repro.DeriveOptions {
	return repro.DeriveOptions{
		Method:  repro.BestAveraged(),
		Workers: 2,
		Gibbs: repro.GibbsOptions{
			Samples: 500, BurnIn: 50, Seed: 9, Method: repro.BestAveraged(),
		},
	}
}

// run executes the example; factored out of main so tests can call it.
func run() error {
	rng := rand.New(rand.NewSource(31))

	// Data: BN9 (6 binary attributes, crown-shaped). 30% of tuples lose
	// one to three values.
	top, err := bn.ByID("BN9")
	if err != nil {
		return err
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		return err
	}
	train := inst.SampleRelation(rng, 20000)
	model, err := repro.Learn(train, repro.LearnOptions{SupportThreshold: 0.002})
	if err != nil {
		return err
	}

	rel := repro.NewRelation(train.Schema)
	for i := 0; i < 5000; i++ {
		tu := inst.Sample(rng)
		if rng.Float64() < 0.3 {
			k := 1 + rng.Intn(3)
			for _, a := range rng.Perm(6)[:k] {
				tu[a] = relation.Missing
			}
		}
		if err := rel.Append(tu); err != nil {
			return err
		}
	}
	fmt.Printf("relation: %d tuples, model: %d meta-rules\n", rel.Len(), model.Size())

	// Query: expected number of tuples with a0 = v1 AND a4 = v0.
	preds := []repro.QueryPred{{Attr: 0, Cmp: repro.QueryEq, Value: 1}, {Attr: 4, Cmp: repro.QueryEq, Value: 0}}
	q, err := repro.CompileQuery(model.Schema, repro.QuerySpec{Op: repro.QueryCount, Preds: preds})
	if err != nil {
		return err
	}

	// Lazy path: Engine.Query infers only what the query needs.
	eng, err := repro.NewEngine(model, options())
	if err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()
	res, err := eng.Query(ctx, rel, q, repro.QueryOptions{})
	if err != nil {
		return err
	}
	lazyTime := time.Since(start)
	plan, st := res.Plan, eng.Stats()
	fmt.Printf("\nlazy:  E[count] = %.4f in %v\n", res.Expected, lazyTime.Round(time.Millisecond))
	fmt.Printf("       decided from known values: %d refuted + %d certain\n", plan.Refuted, plan.Certain)
	fmt.Printf("       open: %d single-missing, %d multi-missing\n", plan.SingleMissing, plan.Bounded+plan.Derive)
	fmt.Printf("       inference performed: %d votes, %d multi-missing joints (%d solved exactly, %d Gibbs chains)\n",
		st.VotesComputed, st.GibbsComputed, st.ExactSolved, st.GibbsComputed-st.ExactSolved)

	// Re-running the same query is served from the engine's caches.
	start = time.Now()
	if _, err := eng.Query(ctx, rel, q, repro.QueryOptions{}); err != nil {
		return err
	}
	again := eng.Stats()
	fmt.Printf("       repeat query: %v (%d new votes, %d new joints)\n",
		time.Since(start).Round(time.Microsecond),
		again.VotesComputed-st.VotesComputed, again.GibbsComputed-st.GibbsComputed)

	// Eager path: derive every block up front with the same options, then
	// fold each tuple's satisfying mass in input order.
	start = time.Now()
	eager, err := repro.NewEngine(model, options())
	if err != nil {
		return err
	}
	var eagerCount float64
	blocks := 0
	err = eager.Derive(ctx, rel, repro.Pools{}, repro.EmitFunc(func(it repro.DeriveItem) error {
		if it.Certain() {
			if satisfies(preds, it.Tuple) {
				eagerCount++
			}
			return nil
		}
		blocks++
		var p float64
		for _, a := range it.Block.Alts {
			if satisfies(preds, a.Tuple) {
				p += a.Prob
			}
		}
		eagerCount += p
		return nil
	}))
	if err != nil {
		return err
	}
	est := eager.Stats()
	fmt.Printf("\neager: E[count] = %.4f in %v (%d blocks materialized: %d votes, %d exact solves, %d Gibbs chains)\n",
		eagerCount, time.Since(start).Round(time.Millisecond), blocks, est.VotesComputed,
		est.ExactSolved, est.GibbsComputed-est.ExactSolved)
	if eagerCount != res.Expected {
		return fmt.Errorf("lazy count %v differs from the full derivation's %v", res.Expected, eagerCount)
	}
	fmt.Println("       equal to the lazy answer")

	// A second query shows the benefit compounding: the engine only
	// infers for tuples that are open on the new predicate and not
	// already cached.
	q2, err := repro.CompileQuery(model.Schema, repro.QuerySpec{
		Op: repro.QueryCount, Preds: []repro.QueryPred{{Attr: 1, Cmp: repro.QueryEq, Value: 0}},
	})
	if err != nil {
		return err
	}
	before := eng.Stats()
	res2, err := eng.Query(ctx, rel, q2, repro.QueryOptions{})
	if err != nil {
		return err
	}
	after := eng.Stats()
	fmt.Printf("\nsecond query E[a1=v0] = %.1f: %d new votes, %d new multi-missing joints\n",
		res2.Expected, after.VotesComputed-before.VotesComputed, after.GibbsComputed-before.GibbsComputed)

	return intensional(model, rel)
}

// satisfies reports whether the complete tuple u passes every equality
// predicate.
func satisfies(preds []repro.QueryPred, u repro.Tuple) bool {
	for _, p := range preds {
		if u[p.Attr] != p.Value {
			return false
		}
	}
	return true
}

// intensional runs the multi-relation finale: the same conjunctive
// questions, but asked through the SQL-ish SPJ surface over two joined
// fragments of the relation. The safety analyzer decides per plan
// whether the extensional answer is exact; an unsafe exists reports the
// dissociated mass with its sound interval instead of silently
// overcounting shared lineage.
func intensional(model *repro.Model, rel *repro.Relation) error {
	// Split the first rows vertically: suitors(a0..a2, key) and
	// profiles(key, a3..a5), joined on a synthetic row key the model does
	// not know. Unique keys keep lineage read-once.
	const nJoin = 300
	keyDom := make([]string, nJoin)
	for i := range keyDom {
		keyDom[i] = fmt.Sprintf("r%d", i)
	}
	keyAttr := relation.Attribute{Name: "key", Domain: keyDom}
	ma := model.Schema.Attrs
	leftSchema, err := relation.NewSchema([]relation.Attribute{ma[0], ma[1], ma[2], keyAttr})
	if err != nil {
		return err
	}
	rightSchema, err := relation.NewSchema([]relation.Attribute{keyAttr, ma[3], ma[4], ma[5]})
	if err != nil {
		return err
	}
	suitors, profiles := repro.NewRelation(leftSchema), repro.NewRelation(rightSchema)
	for i, tu := range rel.Tuples[:nJoin] {
		if err := suitors.Append(relation.Tuple{tu[0], tu[1], tu[2], i}); err != nil {
			return err
		}
		if err := profiles.Append(relation.Tuple{i, tu[3], tu[4], tu[5]}); err != nil {
			return err
		}
	}
	// Two extra suitors share profile r0 and profile r0 loses a4: any
	// plan that depends on a4 now reads that uncertain tuple twice.
	profiles.Tuples[0][2] = relation.Missing
	for _, extra := range [][]int{{0, 1, 0, 0}, {1, 0, 1, 0}} {
		if err := suitors.Append(relation.Tuple(extra)); err != nil {
			return err
		}
	}

	eng, err := repro.NewEngine(model, repro.DeriveOptions{
		Method: repro.BestAveraged(),
		Gibbs: repro.GibbsOptions{
			Samples: 500, BurnIn: 50, Seed: 9, Method: repro.BestAveraged(),
		},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	inputs := map[string]*repro.Relation{"suitors": suitors, "profiles": profiles}

	ask := func(stmt string, spec repro.QuerySpec) (*repro.QueryResult, *repro.CompiledSPJ, error) {
		st, err := repro.ParseSPJ(stmt)
		if err != nil {
			return nil, nil, err
		}
		spjSpec, err := st.Bind(inputs, spec, false)
		if err != nil {
			return nil, nil, err
		}
		spj, err := repro.CompileSPJ(model.Schema, spjSpec)
		if err != nil {
			return nil, nil, err
		}
		res, err := eng.Query(ctx, spj, spj.Query(), repro.QueryOptions{})
		return res, spj, err
	}

	// The a0 count touches only the never-shared left fragment: the plan
	// is hierarchical and the extensional answer exact.
	res, spj, err := ask("from suitors join profiles on key=key where a0=v1", repro.QuerySpec{Op: repro.QueryCount})
	if err != nil {
		return err
	}
	fmt.Printf("\nintensional count(a0=v1): E = %.1f — %s\n", res.Expected, spj.JoinInfo().Verdict)

	// The a4 exists reads profile r0's missing a4 through two joined
	// rows: the plan dissociates, and the answer carries its interval.
	res, spj, err = ask("from suitors join profiles on key=key where a0=v1,a4=v0", repro.QuerySpec{Op: repro.QueryExists})
	if err != nil {
		return err
	}
	fmt.Printf("intensional exists(a0=v1, a4=v0): P = %.4f — %s\n", res.Prob, spj.JoinInfo().Verdict)
	if res.Dissociated && res.Bounds != nil {
		fmt.Printf("  dissociated: intensional mass within [%.4f, %.4f]\n", res.Bounds.Lo, res.Bounds.Hi)
	}
	return nil
}
