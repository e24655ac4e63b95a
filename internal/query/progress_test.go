package query

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/faultinject"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// The progress rule: the executor reports the live result only just
// before it blocks on inference — when a prefetch starts its pool at a
// worklist's first uncached block, and before a block it must compute
// inline or wait on — and only when a fold changed the result since the
// last report.

// progressCase is the fixture of the progress tests: a BN8 relation, its
// derive-everything oracle, an unselective groupby and a selective topk
// with candidates in two waves.
type progressCase struct {
	model   *core.Model
	rel     *relation.Relation
	items   []derive.Item
	groupBy *Query
	topK    *Query
}

func newProgressCase(t *testing.T) progressCase {
	t.Helper()
	model, rel := fixture(t, 41)
	gq, err := Compile(model.Schema, Spec{Op: GroupBy, GroupBy: model.Schema.Attrs[0].Name})
	if err != nil {
		t.Fatal(err)
	}
	tq, err := Compile(model.Schema, Spec{Op: TopK, K: 3, Preds: []Pred{{Attr: 1, Cmp: Eq, Value: 1}, {Attr: 2, Cmp: Eq, Value: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	return progressCase{model: model, rel: rel, items: deriveAll(t, model, rel, engineConfig(2)), groupBy: gq, topK: tq}
}

// newEngine returns a fresh engine over the case's model.
func (pc progressCase) newEngine(t *testing.T) *derive.Engine {
	return newEngine(t, pc.model, engineConfig(2))
}

// evalWith runs q over the case's relation on eng with the given
// progress observer.
func (pc progressCase) evalWith(eng *derive.Engine, q *Query, progress ProgressFunc) (*Result, error) {
	return Eval(context.Background(), eng, pc.rel, q, Options{Progress: progress})
}

// warmEngine returns an engine on which q has already been evaluated
// once, so every block it reads is cached.
func (pc progressCase) warmEngine(t *testing.T, q *Query) *derive.Engine {
	t.Helper()
	eng := pc.newEngine(t)
	if _, err := pc.evalWith(eng, q, nil); err != nil {
		t.Fatal(err)
	}
	return eng
}

// cheapWarmEngine returns an engine on which the block of every
// single-missing tuple of the case's relation is cached and no
// multi-missing one is, so a topk's cheap tiers are served from the
// cache and its first wave's prefetch starts a pool.
func (pc progressCase) cheapWarmEngine(t *testing.T) *derive.Engine {
	t.Helper()
	eng := pc.newEngine(t)
	for _, tu := range pc.rel.Tuples {
		if tu.NumMissing() == 1 {
			if _, _, err := eng.ResolveBlock(context.Background(), tu, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eng
}

// inlineFaults arms derive.prefetch=panic/1: every prefetch item panics
// before it claims its slot, so the evaluation computes every block
// inline, where the idle hook reports.
func inlineFaults(t *testing.T) {
	t.Helper()
	if err := faultinject.Configure("derive.prefetch=panic/1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

// TestWarmGroupByReportsNothing: a groupby served from the engine's
// caches never waits, so it never calls Progress.
func TestWarmGroupByReportsNothing(t *testing.T) {
	pc := newProgressCase(t)
	eng := pc.warmEngine(t, pc.groupBy)
	calls := 0
	res, err := pc.evalWith(eng, pc.groupBy, func(*Result) error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("warm groupby called Progress %d times, want 0", calls)
	}
	checkOracle(t, "warm groupby", pc.groupBy, res, pc.items, pc.rel.Schema)
}

// TestWarmTopKReportsNothing: a topk served from the engine's caches
// starts no prefetch pool for any of its waves, so it never waits and
// never calls Progress.
func TestWarmTopKReportsNothing(t *testing.T) {
	pc := newProgressCase(t)
	eng := pc.warmEngine(t, pc.topK)
	calls := 0
	res, err := pc.evalWith(eng, pc.topK, func(*Result) error { calls++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The executor resolves the bound- and derive-tier candidates in
	// waves of max(2k, 8), each prefetched after a re-plan sweep.
	cands := res.Plan.Bounded + res.Plan.Derive
	wave := max(2*pc.topK.k, 8)
	waves := (cands + wave - 1) / wave
	if waves < 2 {
		t.Fatalf("topk has %d candidates, %d wave(s): want at least 2 waves", cands, waves)
	}
	if calls != 0 {
		t.Errorf("warm topk over %d waves called Progress %d times, want 0", waves, calls)
	}
	checkOracle(t, "warm topk", pc.topK, res, pc.items, pc.rel.Schema)
}

// TestColdGroupByReportsPrefixes: with every block computed inline, a
// groupby reports before each computation that follows a fold; each
// report is the oracle histogram folded over a prefix of the tuples, the
// prefixes grow, and the final result is bit-identical to an evaluation
// without a progress observer.
func TestColdGroupByReportsPrefixes(t *testing.T) {
	pc := newProgressCase(t)
	inlineFaults(t)
	g := pc.groupBy.groupAttr
	prefixes := make([][]Group, len(pc.items)+1)
	for j := range prefixes {
		prefixes[j] = oracleGroupBy(nil, pc.items[:j], pc.rel.Schema, g)
	}
	var reports [][]Group
	res, err := pc.evalWith(pc.newEngine(t), pc.groupBy, func(r *Result) error {
		reports = append(reports, slices.Clone(r.Groups))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("cold groupby computing every block inline called Progress 0 times")
	}
	j := 0
	for n, rep := range reports {
		for j < len(prefixes) && !slices.Equal(rep, prefixes[j]) {
			j++
		}
		if j == len(prefixes) {
			t.Fatalf("report %d of %d = %+v is no oracle prefix histogram after the previous report's", n, len(reports), rep)
		}
	}
	want, err := pc.evalWith(pc.newEngine(t), pc.groupBy, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireGroupsEqual(t, "cold groupby with progress", res.Groups, want.Groups)
	checkOracle(t, "cold groupby with progress", pc.groupBy, res, pc.items, pc.rel.Schema)
}

// progressSites evaluates under each place the executor reports from: a
// cold groupby whose blocks are computed inline (ResolveBlock's idle
// hook) and a topk whose cheap tiers are cached, at its first wave's
// prefetch, whose candidates are not (PrefetchBlocks').
func progressSites(t *testing.T, pc progressCase, check func(t *testing.T, eng *derive.Engine, q *Query)) {
	t.Run("inline", func(t *testing.T) {
		inlineFaults(t)
		check(t, pc.newEngine(t), pc.groupBy)
	})
	t.Run("prefetch", func(t *testing.T) {
		check(t, pc.cheapWarmEngine(t), pc.topK)
	})
}

// TestProgressErrorAbortsEval: an error from Progress aborts the
// evaluation with that error.
func TestProgressErrorAbortsEval(t *testing.T) {
	pc := newProgressCase(t)
	boom := errors.New("client gone")
	progressSites(t, pc, func(t *testing.T, eng *derive.Engine, q *Query) {
		calls := 0
		_, err := pc.evalWith(eng, q, func(*Result) error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("Eval = %v after %d Progress calls, want the progress error after 1", err, calls)
		}
	})
}

// TestProgressPanicBecomesEmitError: a panicking Progress aborts the
// evaluation with a *derive.PanicError whose Op is "emit", like a
// panicking sink, and leaves the engine serviceable: the hook runs with
// the engine lock released, so the lock is retaken whatever it does.
func TestProgressPanicBecomesEmitError(t *testing.T) {
	pc := newProgressCase(t)
	progressSites(t, pc, func(t *testing.T, eng *derive.Engine, q *Query) {
		before := eng.Stats().PanicsRecovered
		_, err := pc.evalWith(eng, q, func(*Result) error { panic("observer bug") })
		var pe *derive.PanicError
		if !errors.As(err, &pe) || pe.Op != "emit" || pe.Value != "observer bug" {
			t.Fatalf("Eval with a panicking Progress = %v, want a PanicError with Op emit", err)
		}
		if eng.Stats().PanicsRecovered <= before {
			t.Error("the Progress panic was not counted in PanicsRecovered")
		}
		faultinject.Disable()
		for i, it := range pc.items {
			if it.Certain() {
				continue
			}
			b, _, err := eng.ResolveBlock(context.Background(), it.Tuple, nil)
			if err != nil {
				t.Fatalf("ResolveBlock of tuple %d after the panic: %v", i, err)
			}
			if !slices.EqualFunc(b.Alts, it.Block.Alts, func(a, o pdb.Alternative) bool {
				return a.Prob == o.Prob && a.Tuple.Equal(o.Tuple)
			}) {
				t.Fatalf("ResolveBlock of tuple %d after the panic differs from the oracle block", i)
			}
		}
		res, err := pc.evalWith(eng, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, "evaluation after the panic", q, res, pc.items, pc.rel.Schema)
	})
}

// TestEvalCanceled: an evaluation whose context was canceled before the
// call fails with context.Canceled, whatever its operator, and so does
// one canceled from its progress hook mid-scan: the scan stops at its
// next poll, so the hook is not called again.
func TestEvalCanceled(t *testing.T) {
	pc := newProgressCase(t)
	preds := []Pred{{Attr: 1, Cmp: Eq, Value: 1}, {Attr: 2, Cmp: Eq, Value: 0}}
	count, err := Compile(pc.model.Schema, Spec{Op: Count, MinProb: 0.5, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	exists, err := Compile(pc.model.Schema, Spec{Op: Exists, MinProb: 0.9, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []*Query{count, exists, pc.topK, pc.groupBy} {
		if _, err := Eval(canceled, pc.newEngine(t), pc.rel, q, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v over a canceled context = %v, want context.Canceled", q.op, err)
		}
	}
	inlineFaults(t)
	for _, q := range []*Query{pc.topK, pc.groupBy} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, err := Eval(ctx, pc.newEngine(t), pc.rel, q, Options{Progress: func(*Result) error {
			calls++
			cancel()
			return nil
		}})
		cancel()
		if !errors.Is(err, context.Canceled) || calls != 1 {
			t.Errorf("%v canceled from its progress hook = %v after %d calls, want context.Canceled after 1", q.op, err, calls)
		}
	}
}
