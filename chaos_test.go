package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// chaosOptions gives the engine real pools; chains are content-seeded,
// so every successful answer is reproducible bit for bit.
func chaosOptions() DeriveOptions {
	return DeriveOptions{
		Method:  BestAveraged(),
		Workers: 4,
		Gibbs:   GibbsOptions{Samples: 200, BurnIn: 20, Seed: 7, Method: BestAveraged()},
	}
}

// chaosChainOptions put the fixture's three- and four-missing tuples on
// the chain side of gibbs.Infer's rule: five sweeps draw at most 15 and
// 20 local CPDs, and their kernels need at least 16 and 60. (Its
// two-missing kernels fit the rule but do not converge in five sweeps,
// so they run chains too.) Under chaosOptions every tuple of the fixture
// is solved exactly, so without this engine no chain would run under the
// race detector.
func chaosChainOptions() DeriveOptions {
	o := chaosOptions()
	o.Gibbs.Samples, o.Gibbs.BurnIn = 4, 1
	return o
}

// chaosStream renders eng's derivation of rel as JSONL bytes — the
// strongest equality check available (schema line, order, and every
// probability digit).
func chaosStream(t *testing.T, eng *Engine, rel *Relation) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf, rel.Schema)
	if err := eng.Derive(context.Background(), rel, Pools{}, sink); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// consistentObservation picks, from a fault-free derivation, a
// multi-missing tuple plus evidence its block already carries — an
// observation the dataset must accept.
func consistentObservation(t *testing.T, db *Database, rel *Relation) (index, attr, val int) {
	t.Helper()
	for i, tu := range rel.Tuples {
		if tu.NumMissing() < 2 {
			continue
		}
		for _, b := range db.Blocks {
			if !b.Base.Equal(tu) {
				continue
			}
			a := tu.MissingAttrs()[0]
			return i, a, int(b.Alts[0].Tuple[a])
		}
	}
	t.Fatal("no multi-missing block in fixture")
	return 0, 0, 0
}

// TestChaosSoak is the fault-injection harness behind `make chaos-smoke`
// (run under -race): concurrent derive, query, observe, and snapshot
// traffic on one engine while injected faults force panics in every
// worker pool, eviction storms, and scheduling delays. The contract it
// enforces:
//
//   - the process never crashes — every injected panic surfaces as a
//     typed *PanicError on exactly one request;
//   - every non-degraded success is bit-identical to a fault-free
//     oracle;
//   - every degraded answer's [lo, hi] interval contains the oracle
//     mass;
//   - once disarmed, the same engine reproduces the oracle exactly.
func TestChaosSoak(t *testing.T) {
	model, rel := matchmakingModel(t)

	// Fault-free oracle: the exact stream, the exact scalar answers, and a
	// consistent observation, all from a fresh engine.
	oracleEng, err := NewEngine(model, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	oracleStream, err := chaosStream(t, oracleEng, rel)
	if err != nil {
		t.Fatal(err)
	}
	oracleDB, err := collect(oracleEng, rel)
	if err != nil {
		t.Fatal(err)
	}
	countQ, err := CompileQuery(model.Schema, QuerySpec{Op: QueryCount, Where: "age=20"})
	if err != nil {
		t.Fatal(err)
	}
	groupQ, err := CompileQuery(model.Schema, QuerySpec{Op: QueryGroupBy, GroupBy: "edu", Where: "age!=30"})
	if err != nil {
		t.Fatal(err)
	}
	// A topk whose waves cut candidates the held rank k already decides:
	// this arms the query.replan fault point on the adaptive path.
	replanQ, err := CompileQuery(model.Schema, QuerySpec{Op: QueryTopK, Where: "age=40", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	oracleCount, err := oracleEng.Query(bg, rel, countQ, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracleGroups, err := oracleEng.Query(bg, rel, groupQ, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracleReplan, err := oracleEng.Query(bg, rel, replanQ, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if oracleReplan.Plan.Adaptive == nil || oracleReplan.Plan.Adaptive.Replans == 0 {
		t.Fatalf("re-plan query did not re-plan: %+v", oracleReplan.Plan.Adaptive)
	}
	obsIndex, obsAttr, obsVal := consistentObservation(t, oracleDB, rel)
	chainOracleEng, err := NewEngine(model, chaosChainOptions())
	if err != nil {
		t.Fatal(err)
	}
	chainOracle, err := chaosStream(t, chainOracleEng, rel)
	if err != nil {
		t.Fatal(err)
	}

	// The engine under fire, with a registered dataset for the live path.
	eng, err := NewEngine(model, chaosOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := eng.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	chainEng, err := NewEngine(model, chaosChainOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Each fault fires on every Nth arrival at its point; after the storm
	// every point must have seen at least N arrivals, so each one fired.
	faults := []struct {
		point, action string
		every         uint64
	}{
		{"derive.vote", "panic", 3},
		{"derive.chain", "panic", 5},
		{"derive.prefetch", "panic", 4},
		{"gibbs.chain", "panic", 9},
		{"gibbs.sweep", "sleep:300us", 7},
		{"sink.write", "sleep:100us", 5},
		{"cache.storm", "fire", 11},
		{"query.replan", "sleep:200us", 3},
	}
	var spec []string
	for _, f := range faults {
		spec = append(spec, fmt.Sprintf("%s=%s/%d", f.point, f.action, f.every))
	}
	if err := faultinject.Configure(strings.Join(spec, ",")); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// tolerate accepts an outcome of a request under fire: success, or a
	// recovered panic typed onto exactly that request.
	tolerate := func(what string, err error) bool {
		if err == nil {
			return true
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			fail("%s: non-panic error under chaos: %v", what, err)
		}
		return false
	}

	const iters = 10
	var wg sync.WaitGroup

	// Derivers: full streams; a success must be byte-identical. The
	// third runs on the engine whose larger kernels go to chains.
	for w, d := range []struct {
		eng    *Engine
		oracle []byte
	}{{eng, oracleStream}, {eng, oracleStream}, {chainEng, chainOracle}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := chaosStream(t, d.eng, rel)
				if !tolerate(fmt.Sprintf("deriver %d/%d", w, i), err) {
					continue
				}
				if !bytes.Equal(got, d.oracle) {
					fail("deriver %d/%d: successful stream differs from oracle", w, i)
				}
			}
		}()
	}

	// Queriers: exact answers without a deadline, sound bounds with one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			res, err := eng.Query(bg, rel, countQ, QueryOptions{})
			if tolerate(fmt.Sprintf("querier count/%d", i), err) {
				if res.Degraded {
					fail("querier count/%d: degraded without a deadline", i)
				} else if res.Expected != oracleCount.Expected {
					fail("querier count/%d: %v, want bit-identical %v", i, res.Expected, oracleCount.Expected)
				}
			}
			res, err = eng.Query(bg, rel, groupQ, QueryOptions{})
			if tolerate(fmt.Sprintf("querier groupby/%d", i), err) && !res.Degraded {
				for g, og := range oracleGroups.Groups {
					if res.Groups[g].Expected != og.Expected {
						fail("querier groupby/%d: group %s = %v, want %v",
							i, og.Label, res.Groups[g].Expected, og.Expected)
					}
				}
			}
			res, err = eng.Query(bg, rel, replanQ, QueryOptions{})
			if tolerate(fmt.Sprintf("querier replan/%d", i), err) && !res.Degraded {
				if !reflect.DeepEqual(res.Rows, oracleReplan.Rows) {
					fail("querier replan/%d: rows %v, want bit-identical %v", i, res.Rows, oracleReplan.Rows)
				}
			}
		}
	}()

	// Deadline querier: budgets already spent — the answer must still
	// come back, flagged degraded, with the oracle inside its bracket.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ctx, cancel := context.WithDeadline(bg, time.Now().Add(-time.Millisecond))
			res, err := eng.Query(ctx, rel, countQ, QueryOptions{})
			cancel()
			if !tolerate(fmt.Sprintf("deadline querier/%d", i), err) {
				continue
			}
			if !res.Degraded || res.Bounds == nil {
				fail("deadline querier/%d: expired budget not degraded (%+v)", i, res)
				continue
			}
			if res.Bounds.Lo > oracleCount.Expected || res.Bounds.Hi < oracleCount.Expected {
				fail("deadline querier/%d: oracle %v outside degraded [%v, %v]",
					i, oracleCount.Expected, res.Bounds.Lo, res.Bounds.Hi)
			}
		}
	}()

	// Observer + snapshot reader: live-evidence traffic on the dataset.
	// The first accepted delta conditions the tuple permanently, so the
	// invariant here is serviceability, not equality with the plain
	// relation: observes are accepted (or panic-typed), snapshots resolve,
	// and snapshot queries answer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sig, unsub := ds.Subscribe()
		defer unsub()
		for i := 0; i < iters; i++ {
			if _, err := ds.Observe(bg, obsIndex, obsAttr, obsVal); err != nil {
				tolerate(fmt.Sprintf("observer/%d", i), err)
			}
			select {
			case <-sig:
			default:
			}
			snap, err := ds.Snapshot(bg)
			if !tolerate(fmt.Sprintf("snapshot/%d", i), err) {
				continue
			}
			if _, err := eng.Query(bg, snap, countQ, QueryOptions{}); err != nil {
				tolerate(fmt.Sprintf("snapshot query/%d", i), err)
			}
		}
	}()

	wg.Wait()
	for _, f := range faults {
		if n := faultinject.Arrivals(f.point); n < f.every {
			t.Errorf("fault point %s: %d arrivals, want at least %d (the fault never fired)", f.point, n, f.every)
		}
	}
	faultinject.Disable()

	mu.Lock()
	defer mu.Unlock()
	for _, f := range failures {
		t.Error(f)
	}

	// The storm is over: the same engine, same caches, reproduces the
	// oracle bit for bit, and its books are intact.
	got, err := chaosStream(t, eng, rel)
	if err != nil {
		t.Fatalf("engine unserviceable after chaos: %v", err)
	}
	if !bytes.Equal(got, oracleStream) {
		t.Error("post-chaos stream differs from oracle")
	}
	res, err := eng.Query(bg, rel, countQ, QueryOptions{})
	if err != nil || res.Expected != oracleCount.Expected {
		t.Errorf("post-chaos count = %+v (%v), want %v", res, err, oracleCount.Expected)
	}
	st := eng.Stats()
	if st.PanicsRecovered == 0 {
		t.Error("chaos soak recovered no panics — injection points never fired")
	}
	if st.Watchers != 0 {
		t.Errorf("watchers gauge = %d after unsubscribe, want 0", st.Watchers)
	}
	if got, err := chaosStream(t, chainEng, rel); err != nil || !bytes.Equal(got, chainOracle) {
		t.Errorf("post-chaos chain-engine stream differs from oracle (%v)", err)
	}
	// Both tiers ran under fire: exact solves, and chains.
	cst := chainEng.Stats()
	if st.ExactSolved == 0 || cst.GibbsComputed-cst.ExactSolved == 0 {
		t.Errorf("%d exact solves, %d chains: the soak did not run both tiers",
			st.ExactSolved, cst.GibbsComputed-cst.ExactSolved)
	}
}
