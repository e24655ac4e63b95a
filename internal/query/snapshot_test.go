package query

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// Live-evidence evaluation tests: after any sequence of observation
// deltas on a registered dataset, every operator's answer over the
// snapshot must be bit-identical to a fresh engine evaluating the
// conditioned database naively — the PR's central acceptance property.

type obsDelta struct {
	index, attr, val int
}

// buildScript pins, for every `every`-th incomplete tuple, its first
// missing attribute(s) to the most probable completion of its current
// conditioned block — up to two steps, so multi-missing tuples exercise
// incremental conditioning and single-missing ones collapse.
func buildScript(t *testing.T, eng *derive.Engine, rel *relation.Relation, every int) []obsDelta {
	t.Helper()
	ctx := context.Background()
	var script []obsDelta
	n, multiPicks := 0, 0
	for i, tu := range rel.Tuples {
		if tu.IsComplete() {
			continue
		}
		n++
		if n%every != 0 {
			continue
		}
		b, _, err := eng.ResolveBlock(ctx, tu, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate depth across the multi-missing picks: half observe
		// once (the tuple stays a conditioned BLOCK — the observed tier),
		// half observe to completion (exercising collapse and epochs > 1).
		// Single-missing picks always collapse.
		maxSteps := len(tu)
		if tu.NumMissing() > 1 {
			multiPicks++
			if multiPicks%2 == 1 {
				maxSteps = 1
			}
		}
		for steps := 0; steps < maxSteps && !b.Base.IsComplete(); steps++ {
			attr := b.Base.MissingAttrs()[0]
			val := b.Alts[0].Tuple[attr]
			script = append(script, obsDelta{index: i, attr: attr, val: val})
			if b, err = b.Observe(attr, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(script) == 0 {
		t.Fatal("empty observation script")
	}
	return script
}

// conditionedItems is the oracle input: a separate engine (never the one
// under test) resolves every incomplete tuple per tuple and the script
// prefix is replayed through pdb.Block.Observe — a fresh evaluation of
// the conditioned database, sharing no dataset state with the live path.
func conditionedItems(t *testing.T, oracle *derive.Engine, rel *relation.Relation, script []obsDelta) []derive.Item {
	t.Helper()
	ctx := context.Background()
	blocks := make(map[int]*pdb.Block)
	for _, o := range script {
		b, ok := blocks[o.index]
		var err error
		if !ok {
			if b, _, err = oracle.ResolveBlock(ctx, rel.Tuples[o.index], nil); err != nil {
				t.Fatal(err)
			}
		}
		if b, err = b.Observe(o.attr, o.val); err != nil {
			t.Fatal(err)
		}
		blocks[o.index] = b
	}
	var items []derive.Item
	for i, tu := range rel.Tuples {
		if b, ok := blocks[i]; ok {
			if b.Base.IsComplete() {
				items = append(items, derive.Item{Index: i, Tuple: b.Base})
			} else {
				items = append(items, derive.Item{Index: i, Tuple: b.Base, Block: b})
			}
			continue
		}
		if tu.IsComplete() {
			items = append(items, derive.Item{Index: i, Tuple: tu})
			continue
		}
		b, _, err := oracle.ResolveBlock(ctx, tu, nil)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, derive.Item{Index: i, Tuple: tu, Block: b})
	}
	return items
}

func newEngine(t *testing.T, m *core.Model, cfg derive.Config) *derive.Engine {
	t.Helper()
	eng, err := derive.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEvalSnapshotMatchesConditionedOracle: randomized queries across
// every operator over a fully observed dataset, on unbounded and
// always-evicting engines, are bit-identical to the fresh-engine oracle
// over the conditioned database.
func TestEvalSnapshotMatchesConditionedOracle(t *testing.T) {
	ctx := context.Background()
	model, rel := fixture(t, 31)
	modes := []struct {
		name string
		cfg  derive.Config
	}{
		{"chains", engineConfig(4)},
		{"chains-evicting", func() derive.Config {
			c := engineConfig(4)
			c.CacheEntries = 1
			return c
		}()},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			live := newEngine(t, model, mode.cfg)
			ds, err := live.RegisterDataset(rel)
			if err != nil {
				t.Fatal(err)
			}
			script := buildScript(t, live, rel, 3)
			for _, o := range script {
				if _, err := ds.Observe(ctx, o.index, o.attr, o.val); err != nil {
					t.Fatalf("observe %+v: %v", o, err)
				}
			}
			items := conditionedItems(t, newEngine(t, model, mode.cfg), rel, script)
			snap, err := ds.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Version != uint64(len(script)) {
				t.Fatalf("snapshot version = %d, want %d", snap.Version, len(script))
			}

			rng := rand.New(rand.NewSource(4242))
			sawObserved := false
			for _, op := range []Op{Count, Exists, TopK, GroupBy} {
				for round := 0; round < 3; round++ {
					spec := randomSpec(rng, model.Schema, op)
					q, err := Compile(model.Schema, spec)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Eval(ctx, live, snap, q, Options{})
					if err != nil {
						t.Fatalf("%v round %d: %v", op, round, err)
					}
					checkOracle(t, q.String(), q, res, items, model.Schema)
					if res.Plan.Observed > 0 {
						sawObserved = true
					}
				}
			}
			if !sawObserved {
				t.Error("no evaluation planned an observed tuple")
			}
		})
	}
}

// TestEvalSnapshotAfterEveryDelta is the staleness killer: a single
// long-lived engine takes deltas one at a time, and after EVERY delta a
// fresh snapshot's answers are bit-identical to the fresh-engine oracle
// of the conditioned database at that prefix. A stale conditioned-block,
// block, or CPD entry surviving any delta would surface here.
func TestEvalSnapshotAfterEveryDelta(t *testing.T) {
	ctx := context.Background()
	model, rel := fixture(t, 37)
	cfg := engineConfig(4)
	live := newEngine(t, model, cfg)
	oracle := newEngine(t, model, cfg) // content-keyed caches: equivalent to per-prefix fresh engines
	ds, err := live.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	script := buildScript(t, live, rel, 5)

	specs := []Spec{
		{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Le, Value: 1}}},
		{Op: Count, Preds: []Pred{{Attr: 1, Cmp: Eq, Value: 0}}, MinProb: 0.4},
		{Op: Exists, Preds: []Pred{{Attr: 2, Cmp: Gt, Value: 0}, {Attr: 0, Cmp: Ne, Value: 1}}, MinProb: 0.9},
		{Op: TopK, Preds: []Pred{{Attr: 1, Cmp: Ge, Value: 1}}, K: 5},
		{Op: GroupBy, GroupBy: model.Schema.Attrs[0].Name},
	}
	var queries []*Query
	for _, spec := range specs {
		q, err := Compile(model.Schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	for step := range script {
		o := script[step]
		if _, err := ds.Observe(ctx, o.index, o.attr, o.val); err != nil {
			t.Fatalf("step %d observe %+v: %v", step, o, err)
		}
		snap, err := ds.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		items := conditionedItems(t, oracle, rel, script[:step+1])
		for qi, q := range queries {
			res, err := Eval(ctx, live, snap, q, Options{})
			if err != nil {
				t.Fatalf("step %d query %d: %v", step, qi, err)
			}
			checkOracle(t, q.String(), q, res, items, model.Schema)
		}
	}
}
