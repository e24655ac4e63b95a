package query

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/gibbs"
	"repro/internal/relation"
	"repro/internal/vote"
)

func bestAveraged() vote.Method {
	return vote.Method{Choice: core.BestVoters, Scheme: vote.Averaged}
}

func engineConfig(voteWorkers, gibbsWorkers int) derive.Config {
	return derive.Config{
		Method:       bestAveraged(),
		Gibbs:        gibbs.Config{Samples: 120, BurnIn: 20, Method: bestAveraged(), Seed: 7},
		VoteWorkers:  voteWorkers,
		GibbsWorkers: gibbsWorkers,
	}
}

// fixture learns a model over a catalog network and builds a mixed
// relation of complete, single-missing, and multi-missing tuples with
// repeated damage patterns.
func fixture(t testing.TB, seed int64) (*core.Model, *relation.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := inst.SampleRelation(rng, 6000)
	m, err := core.Learn(train, core.Config{SupportThreshold: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	nAttrs := train.Schema.NumAttrs()
	rel := relation.NewRelation(train.Schema)
	for i := 0; i < 160; i++ {
		tu := inst.Sample(rng)
		switch {
		case i%4 == 1:
			tu[rng.Intn(nAttrs)] = relation.Missing
		case i%4 == 2:
			perm := rng.Perm(nAttrs)
			tu[perm[0]] = relation.Missing
			tu[perm[1]] = relation.Missing
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return m, rel
}

// deriveAll materializes the full derivation stream of a fresh engine —
// the oracle's input.
func deriveAll(t testing.TB, m *core.Model, rel *relation.Relation, cfg derive.Config) []derive.Item {
	t.Helper()
	eng, err := derive.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var items []derive.Item
	if err := eng.Stream(rel, func(it derive.Item) error {
		items = append(items, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return items
}

// holdsAll evaluates the raw predicates on a complete tuple — on purpose
// independent of the compiled satisfying sets, so the oracle also checks
// compilation.
func holdsAll(preds []Pred, u relation.Tuple) bool {
	for _, p := range preds {
		if !p.Cmp.holds(u[p.Attr], p.Value) {
			return false
		}
	}
	return true
}

// naiveProb is the oracle's per-item satisfaction probability: evidence
// for certain items, the plain sum over satisfying alternatives (in
// block order) for blocks.
func naiveProb(preds []Pred, it derive.Item) float64 {
	if it.Certain() {
		if holdsAll(preds, it.Tuple) {
			return 1
		}
		return 0
	}
	var s float64
	for _, a := range it.Block.Alts {
		if holdsAll(preds, a.Tuple) {
			s += a.Prob
		}
	}
	return s
}

// oracleCount folds the naive expected count (or thresholded count) over
// the full stream, in input order.
func oracleCount(preds []Pred, items []derive.Item, minProb float64) (expected float64, count int64) {
	for _, it := range items {
		p := naiveProb(preds, it)
		if minProb > 0 {
			if p >= minProb {
				count++
			}
		} else {
			expected += p
		}
	}
	return expected, count
}

// oracleExists folds 1 - prod(1 - p) over the full stream.
func oracleExists(preds []Pred, items []derive.Item) float64 {
	miss := 1.0
	for _, it := range items {
		miss *= 1 - naiveProb(preds, it)
	}
	return 1 - miss
}

// oracleTopK is the naive selection: every satisfying row in stream
// order, stable-sorted by descending probability, thresholded and cut.
func oracleTopK(preds []Pred, items []derive.Item, k int, minProb float64) []Row {
	var rows []Row
	add := func(r Row) {
		if minProb > 0 && r.Prob < minProb {
			return
		}
		rows = append(rows, r)
	}
	for _, it := range items {
		if it.Certain() {
			if holdsAll(preds, it.Tuple) {
				add(Row{Index: it.Index, Tuple: it.Tuple, Prob: 1, Certain: true})
			}
			continue
		}
		for _, a := range it.Block.Alts {
			if holdsAll(preds, a.Tuple) {
				add(Row{Index: it.Index, Tuple: a.Tuple, Prob: a.Prob})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Prob > rows[j].Prob })
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// oracleGroupBy folds the naive satisfying-mass histogram of attribute g.
func oracleGroupBy(preds []Pred, items []derive.Item, s *relation.Schema, g int) []Group {
	card := s.Attrs[g].Card()
	groups := make([]Group, card)
	for v := range groups {
		groups[v] = Group{Value: v, Label: s.Attrs[g].Domain[v]}
	}
	perValue := make([]float64, card)
	for _, it := range items {
		if it.Certain() {
			if holdsAll(preds, it.Tuple) {
				groups[it.Tuple[g]].Expected++
			}
			continue
		}
		for v := range perValue {
			perValue[v] = 0
		}
		for _, a := range it.Block.Alts {
			if holdsAll(preds, a.Tuple) {
				perValue[a.Tuple[g]] += a.Prob
			}
		}
		for v, p := range perValue {
			groups[v].Expected += p
			groups[v].Variance += p * (1 - p)
		}
	}
	return groups
}

// randomSpec draws a query with 1-2 random predicates.
func randomSpec(rng *rand.Rand, s *relation.Schema, op Op) Spec {
	n := 1 + rng.Intn(2)
	preds := make([]Pred, 0, n)
	for i := 0; i < n; i++ {
		attr := rng.Intn(s.NumAttrs())
		preds = append(preds, Pred{
			Attr:  attr,
			Cmp:   Cmp(rng.Intn(6)),
			Value: rng.Intn(s.Attrs[attr].Card()),
		})
	}
	spec := Spec{Op: op, Preds: preds}
	if op == TopK {
		// k <= 0 keeps every row (and prefetches its worklist instead of
		// terminating early) — exercised alongside bounded ks.
		spec.K = rng.Intn(9)
	}
	if op == GroupBy {
		spec.GroupBy = s.Attrs[rng.Intn(s.NumAttrs())].Name
	}
	if op != GroupBy && rng.Intn(2) == 0 {
		spec.MinProb = rng.Float64()
	}
	return spec
}

func requireRowsEqual(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Prob != want[i].Prob || got[i].Index != want[i].Index ||
			got[i].Certain != want[i].Certain || !got[i].Tuple.Equal(want[i].Tuple) {
			t.Fatalf("%s: row %d = %+v, want bit-identical %+v", label, i, got[i], want[i])
		}
	}
}

func requireGroupsEqual(t *testing.T, label string, got, want []Group) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: group %d = %+v, want bit-identical %+v", label, i, got[i], want[i])
		}
	}
}

// checkOracle compares one evaluation against the naive full-derivation
// oracle, demanding bit identity.
func checkOracle(t *testing.T, label string, q *Query, res *Result, items []derive.Item, s *relation.Schema) {
	t.Helper()
	preds := q.preds
	switch q.op {
	case Count:
		expected, count := oracleCount(preds, items, q.minProb)
		if res.Expected != expected || res.Count != count {
			t.Fatalf("%s: count = (%v, %d), want bit-identical (%v, %d)",
				label, res.Expected, res.Count, expected, count)
		}
	case Exists:
		prob := oracleExists(preds, items)
		wantExists := prob > 0
		if q.minProb > 0 {
			wantExists = prob >= q.minProb
		}
		if res.Exists != wantExists {
			t.Fatalf("%s: exists = %v (P=%v), oracle %v (P=%v)",
				label, res.Exists, res.Prob, wantExists, prob)
		}
		// The probability is bit-identical whenever evaluation ran to
		// completion; an early stop under a threshold yields a sound
		// lower bound instead.
		if !res.EarlyStop && res.Prob != prob {
			t.Fatalf("%s: P(exists) = %v, want bit-identical %v", label, res.Prob, prob)
		}
		if res.EarlyStop && q.minProb > 0 && res.Prob > prob {
			t.Fatalf("%s: early-stop bound %v exceeds exact %v", label, res.Prob, prob)
		}
	case TopK:
		requireRowsEqual(t, label, res.Rows, oracleTopK(preds, items, q.k, q.minProb))
	case GroupBy:
		requireGroupsEqual(t, label, res.Groups, oracleGroupBy(preds, items, s, q.groupAttr))
	}
	c := res.Counters
	if c.Scanned != int64(len(items)) || c.Pruned+c.Bounded+c.Derived != c.Scanned {
		t.Fatalf("%s: counters do not partition the scan: %+v", label, c)
	}
}

// TestEvalMatchesOracle is the subsystem's core property: for randomized
// models, relations, and queries across every operator — with and
// without probability thresholds — evaluation through the engine is
// bit-identical to deriving the full database and evaluating naively,
// at every worker count (pool sizes never change answers). The last
// relation's multi-missing tuples are served by both tiers of
// gibbs.Infer.
func TestEvalMatchesOracle(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		model, rel := fixture(t, seed)
		evalMatchesOracle(t, model, rel, seed)
	}
	model, rel := tieredFixture(t, 17)
	st := evalMatchesOracle(t, model, rel, 17)
	if st.ExactSolved == 0 || st.GibbsComputed == st.ExactSolved {
		t.Fatalf("%d of %d joints solved exactly: the tiered fixture does not cover both tiers",
			st.ExactSolved, st.GibbsComputed)
	}
}

// tieredFixture is fixture on BN10 (six attributes of four values) with
// up to five hidden values: under engineConfig two or three hidden
// values are solved exactly, and five need more local CPDs than the
// chain's 140 sweeps draw, so they run chains.
func tieredFixture(t testing.TB, seed int64) (*core.Model, *relation.Relation) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	top, err := bn.ByID("BN10")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Learn(inst.SampleRelation(rng, 3000), core.Config{SupportThreshold: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.NewRelation(top.Schema())
	for i := 0; i < 60; i++ {
		tu := inst.Sample(rng)
		for _, a := range rng.Perm(len(tu))[:[]int{0, 1, 2, 3, 5}[i%5]] {
			tu[a] = relation.Missing
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return m, rel
}

// evalMatchesOracle checks random queries of every operator on rel
// against the derive-everything oracle, on engines of three pool sizes,
// and returns the stats of the oracle's engine.
func evalMatchesOracle(t *testing.T, model *core.Model, rel *relation.Relation, seed int64) derive.Stats {
	t.Helper()
	ctx := context.Background()
	oracleEng, err := derive.New(model, engineConfig(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	var items []derive.Item
	if err := oracleEng.Stream(rel, func(it derive.Item) error {
		items = append(items, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var engines []*derive.Engine
	for _, w := range [][2]int{{1, 2}, {2, 4}, {8, 8}} {
		eng, err := derive.New(model, engineConfig(w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}

	rng := rand.New(rand.NewSource(seed * 101))
	for _, op := range []Op{Count, Exists, TopK, GroupBy} {
		for round := 0; round < 4; round++ {
			spec := randomSpec(rng, model.Schema, op)
			q, err := Compile(model.Schema, spec)
			if err != nil {
				t.Fatal(err)
			}
			for wi, eng := range engines {
				res, err := Eval(ctx, eng, rel, q)
				if err != nil {
					t.Fatalf("%v round %d workers %d: %v", op, round, wi, err)
				}
				checkOracle(t, q.String(), q, res, items, model.Schema)
			}
		}
	}

	// The engines recorded every evaluation.
	st := engines[0].Stats()
	if st.Queries == 0 || st.QueryTuples != st.Queries*int64(rel.Len()) {
		t.Errorf("engine stats did not record queries: %+v", st)
	}
	// Every scanned tuple's final interval width lies in [0, 1].
	if w := st.QueryBoundWidth; w < 0 || w > float64(st.QueryTuples) {
		t.Errorf("bound width %v outside [0, %d]", w, st.QueryTuples)
	}
	return oracleEng.Stats()
}

// TestThresholdTouchesTupleProbability pins the edge where a bound
// exactly equals the decision threshold: a tuple with satisfaction
// probability p counts against MinProb == p (>=, not >), identically in
// the evaluator and the oracle.
func TestThresholdTouchesTupleProbability(t *testing.T) {
	model, rel := fixture(t, 21)
	items := deriveAll(t, model, rel, engineConfig(4, 4))
	preds := []Pred{{Attr: 0, Cmp: Eq, Value: 1}}

	// Find an inferred, strictly fractional tuple probability.
	var touch float64
	for _, it := range items {
		if p := naiveProb(preds, it); p > 0 && p < 1 {
			touch = p
			break
		}
	}
	if touch == 0 {
		t.Fatal("fixture has no fractional tuple probability")
	}

	eng, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{Op: Count, Preds: preds, MinProb: touch})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	_, want := oracleCount(preds, items, touch)
	if res.Count != want {
		t.Fatalf("count at touching threshold %v: %d, want %d", touch, res.Count, want)
	}
	if want == 0 {
		t.Fatal("touching threshold excluded the touching tuple")
	}

	// Exists at a threshold exactly equal to the full existence
	// probability still answers yes.
	full := oracleExists(preds, items)
	q, err = Compile(model.Schema, Spec{Op: Exists, Preds: preds, MinProb: full})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists {
		t.Fatalf("exists at touching threshold %v answered no", full)
	}
}

// TestSelectiveQueriesPrune is the subsystem's reason to exist: selective
// exists and topk queries must derive strictly fewer blocks than full
// derivation while still answering exactly.
func TestSelectiveQueriesPrune(t *testing.T) {
	model, rel := fixture(t, 31)
	items := deriveAll(t, model, rel, engineConfig(4, 4))
	var incomplete int64
	for _, tu := range rel.Tuples {
		if !tu.IsComplete() {
			incomplete++
		}
	}
	if incomplete == 0 {
		t.Fatal("fixture has no incomplete tuples")
	}

	// An exists query with a certain witness in the data: answered with
	// zero inference.
	var witness relation.Tuple
	for _, tu := range rel.Tuples {
		if tu.IsComplete() {
			witness = tu
			break
		}
	}
	preds := []Pred{
		{Attr: 0, Cmp: Eq, Value: witness[0]},
		{Attr: 1, Cmp: Eq, Value: witness[1]},
	}
	eng, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{Op: Exists, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exists || res.Prob != 1 || !res.EarlyStop {
		t.Fatalf("certain witness not detected: %+v", res)
	}
	if res.Counters.Derived != 0 || res.Counters.Bounded != 0 {
		t.Fatalf("certain witness still paid for inference: %+v", res.Counters)
	}
	if oracleExists(preds, items) != 1 {
		t.Fatal("oracle disagrees with the certain witness")
	}

	// A selective topk query: refuted tuples are never derived.
	q, err = Compile(model.Schema, Spec{Op: TopK, Preds: preds, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err = Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "selective topk", res.Rows, oracleTopK(preds, items, 3, 0))
	if res.Counters.Pruned == 0 {
		t.Fatalf("selective topk pruned nothing: %+v", res.Counters)
	}
	if res.Counters.Derived >= incomplete {
		t.Fatalf("topk derived %d of %d incomplete tuples — no better than full derivation",
			res.Counters.Derived, incomplete)
	}

	st := eng.Stats()
	if st.QueryPruned == 0 || st.Queries != 2 {
		t.Errorf("engine stats did not record the pruning: %+v", st)
	}
}

// TestCappedEngineFallsBackToDerivation: with a block-alternative cap the
// marginal CPD no longer equals the (renormalized) block, so bound-based
// pruning must be disabled — and answers must still match the naive
// oracle over the capped stream.
func TestCappedEngineFallsBackToDerivation(t *testing.T) {
	model, rel := fixture(t, 41)
	cfg := engineConfig(4, 4)
	cfg.MaxAlternatives = 2
	items := deriveAll(t, model, rel, cfg)

	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preds := []Pred{{Attr: 0, Cmp: Ge, Value: 1}}
	q, err := Compile(model.Schema, Spec{Op: Count, Preds: preds})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Bounded != 0 {
		t.Fatalf("capped engine still used CPD bounds: %+v", res.Counters)
	}
	expected, _ := oracleCount(preds, items, 0)
	if res.Expected != expected {
		t.Fatalf("capped count = %v, want bit-identical %v", res.Expected, expected)
	}
}

// rareValues finds, for two distinct attributes, the value with the
// smallest positive frequency in a reference sample — the most selective
// equality predicates the fixture supports.
func rareValues(t *testing.T, inst *bn.Instance, rng *rand.Rand, s *relation.Schema) (a1, v1, a2, v2 int) {
	t.Helper()
	n := s.NumAttrs()
	freq := make([][]int, n)
	for a := range freq {
		freq[a] = make([]int, s.Attrs[a].Card())
	}
	for i := 0; i < 2000; i++ {
		tu := inst.Sample(rng)
		for a, v := range tu {
			freq[a][v]++
		}
	}
	type rare struct{ attr, val, count int }
	best := make([]rare, 0, n)
	for a := range freq {
		r := rare{attr: a, val: 0, count: freq[a][0]}
		for v, c := range freq[a] {
			if c > 0 && (freq[a][r.val] == 0 || c < r.count) {
				r.val, r.count = v, c
			}
		}
		best = append(best, r)
	}
	sort.Slice(best, func(i, j int) bool { return best[i].count < best[j].count })
	return best[0].attr, best[0].val, best[1].attr, best[1].val
}

// TestBoundsPruneMultiMissing is the bound engine's acceptance bar: on a
// multi-missing-heavy workload with enough samples for tight intervals,
// a selective thresholded count decides at least half its multi-missing
// tuples from dissociation bounds alone (PR 4 derived every one), and a
// thresholded exists crosses its threshold on the derivation-free
// lower-bound pass without sampling a single chain — both bit-identical
// to the derive-everything oracle.
func TestBoundsPruneMultiMissing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	train := inst.SampleRelation(rng, 6000)
	model, err := core.Learn(train, core.Config{SupportThreshold: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	s := model.Schema
	a1, v1, a2, v2 := rareValues(t, inst, rng, s)

	cfg := derive.Config{
		Method:       bestAveraged(),
		Gibbs:        gibbs.Config{Samples: 800, BurnIn: 50, Method: bestAveraged(), Seed: 7},
		VoteWorkers:  2,
		GibbsWorkers: 4,
	}

	// A multi-missing-heavy relation: half the tuples miss both predicate
	// attributes (sometimes a third), drawn from a limited pattern pool so
	// the oracle derivation stays cheap.
	nAttrs := s.NumAttrs()
	patterns := make([]relation.Tuple, 12)
	for i := range patterns {
		tu := inst.Sample(rng)
		tu[a1], tu[a2] = relation.Missing, relation.Missing
		if i%3 == 0 {
			for _, a := range rng.Perm(nAttrs) {
				if a != a1 && a != a2 {
					tu[a] = relation.Missing
					break
				}
			}
		}
		patterns[i] = tu
	}
	rel := relation.NewRelation(s)
	for i := 0; i < 160; i++ {
		var tu relation.Tuple
		if i%2 == 0 {
			tu = inst.Sample(rng)
		} else {
			tu = patterns[rng.Intn(len(patterns))].Clone()
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	items := deriveAll(t, model, rel, cfg)

	// Selective thresholded count: every multi-missing tuple's interval
	// should fall cleanly below the threshold.
	preds := []Pred{{Attr: a1, Cmp: Eq, Value: v1}, {Attr: a2, Cmp: Eq, Value: v2}}
	q, err := Compile(s, Spec{Op: Count, Preds: preds, MinProb: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "bounded count", q, res, items, s)
	var multiOpen int64
	for _, tu := range rel.Tuples {
		if c, _ := q.classify(tu, nil); c == openMulti {
			multiOpen++
		}
	}
	if multiOpen < 20 {
		t.Fatalf("fixture is not multi-missing-heavy: %d open multi tuples", multiOpen)
	}
	if res.Counters.Derived*2 > multiOpen {
		t.Fatalf("bounds decided too little: derived %d of %d open multi-missing tuples (PR 4 derived all)",
			res.Counters.Derived, multiOpen)
	}
	if res.Counters.BoundRefutes == 0 {
		t.Fatalf("no tuple was refuted by its upper bound: %+v", res.Counters)
	}
	if res.Plan == nil || res.Plan.Bounded == 0 {
		t.Fatalf("plan did not record bound-tier tuples: %+v", res.Plan)
	}

	// Thresholded exists over an all-incomplete relation (no certain
	// witness): the lower-bound pass alone must cross the threshold.
	rel2 := relation.NewRelation(s)
	for i := 0; i < 60; i++ {
		if err := rel2.Append(patterns[i%len(patterns)].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	items2 := deriveAll(t, model, rel2, cfg)
	q2, err := Compile(s, Spec{Op: Exists, Preds: []Pred{{Attr: a1, Cmp: Ne, Value: v1}}, MinProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Eval(context.Background(), eng, rel2, q2)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "bounded exists", q2, res2, items2, s)
	if !res2.Exists || !res2.EarlyStop {
		t.Fatalf("exists did not decide early: %+v", res2)
	}
	if res2.Counters.Derived != 0 {
		t.Fatalf("exists lower-bound pass still derived %d tuples", res2.Counters.Derived)
	}

	st := eng.Stats()
	if st.EnvelopeMisses == 0 || st.BoundRefutes == 0 {
		t.Fatalf("engine stats did not record bound work: %+v", st)
	}
}

// TestPlanInfo pins the planner's public summary: tier counts partition
// the scan, and the predicate order is sorted by estimated selectivity.
func TestPlanInfo(t *testing.T) {
	model, rel := fixture(t, 61)
	eng, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{
		Op:      Count,
		Preds:   []Pred{{Attr: 0, Cmp: Ge, Value: 1}, {Attr: 1, Cmp: Eq, Value: 0}},
		MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	if p == nil {
		t.Fatal("no plan attached to the result")
	}
	if got := p.Refuted + p.Certain + p.SingleMissing + p.Bounded + p.Derive; got != rel.Len() {
		t.Fatalf("plan tiers cover %d of %d tuples: %+v", got, rel.Len(), p)
	}
	if len(p.PredOrder) != 2 || len(p.Selectivity) != 2 {
		t.Fatalf("plan predicate order incomplete: %+v", p)
	}
	if p.Selectivity[0] > p.Selectivity[1] {
		t.Fatalf("predicates not ordered by selectivity: %+v", p)
	}
	if !p.BoundsUsed {
		t.Fatalf("thresholded count should plan with bounds: %+v", p)
	}
	if s := p.String(); !strings.Contains(s, "tiers:") || !strings.Contains(s, "predicate order:") {
		t.Fatalf("explain rendering incomplete:\n%s", s)
	}

	// The same query without a threshold cannot use bounds.
	q2, err := Compile(model.Schema, Spec{Op: Count, Preds: q.preds})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Eval(context.Background(), eng, rel, q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Plan.BoundsUsed || res2.Plan.Bounded != 0 {
		t.Fatalf("expected-count plan should not use bounds: %+v", res2.Plan)
	}
}

// TestTopKCertainCutSkipsCheapTiers: once k certain rows fill the cut,
// trailing single-missing tuples must cost nothing — the pre-planner
// evaluator's early stop, which the tiered executor must preserve.
func TestTopKCertainCutSkipsCheapTiers(t *testing.T) {
	model, _ := fixture(t, 91)
	rng := rand.New(rand.NewSource(93))
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.NewRelation(model.Schema)
	w := inst.Sample(rng)
	for i := 0; i < 2; i++ { // two certain witnesses up front
		if err := rel.Append(w.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ { // trailing single-missing tuples
		tu := w.Clone()
		tu[1+i%3] = relation.Missing
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := derive.New(model, engineConfig(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{Op: TopK, Preds: []Pred{{Attr: 0, Cmp: Eq, Value: w[0]}}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Rows[0].Certain || !res.Rows[1].Certain || !res.EarlyStop {
		t.Fatalf("certain cut not taken: %+v", res)
	}
	if res.Counters.Bounded != 0 || res.Counters.Derived != 0 {
		t.Fatalf("trailing single-missing tuples still paid for inference: %+v", res.Counters)
	}
}

// TestCappedTopKTieAtProbabilityOne: on an alternative-capped engine a
// renormalized block holds a completion with probability exactly 1 —
// the vacuous upper bound is attainable. The rank-k cut must not skip a
// candidate from an earlier input index whose tied completion wins the
// (probability, input order) tie-break against a held certain row.
func TestCappedTopKTieAtProbabilityOne(t *testing.T) {
	model, _ := fixture(t, 81)
	cfg := engineConfig(2, 2)
	cfg.MaxAlternatives = 1

	rng := rand.New(rand.NewSource(83))
	top, err := bn.ByID("BN8")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := bn.Instantiate(top, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := inst.Sample(rng)
	open := w.Clone()
	open[1] = relation.Missing // unconstrained attribute: the tuple satisfies via every completion
	rel := relation.NewRelation(model.Schema)
	for _, tu := range []relation.Tuple{open, w} {
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	items := deriveAll(t, model, rel, cfg)

	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{Op: TopK, Preds: []Pred{{Attr: 0, Cmp: Eq, Value: w[0]}}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, rel, q)
	if err != nil {
		t.Fatal(err)
	}
	requireRowsEqual(t, "capped topk tie", res.Rows, oracleTopK(q.preds, items, 1, 0))
	if len(res.Rows) != 1 || res.Rows[0].Index != 0 {
		t.Fatalf("rank-1 row is %+v; the probability-1 completion at input index 0 must win the tie", res.Rows)
	}
}

// TestEvalValidation covers the evaluator's own error paths.
func TestEvalValidation(t *testing.T) {
	model, rel := fixture(t, 51)
	eng, err := derive.New(model, engineConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(model.Schema, Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Eq, Value: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(context.Background(), nil, rel, q); err == nil {
		t.Error("nil engine should fail")
	}
	if _, err := Eval(context.Background(), eng, nil, q); err == nil {
		t.Error("nil relation should fail")
	}
	if _, err := Eval(context.Background(), eng, rel, nil); err == nil {
		t.Error("nil query should fail")
	}

	other := relation.NewRelation(relation.MustSchema([]relation.Attribute{
		{Name: "z", Domain: []string{"0", "1"}},
	}))
	if _, err := Eval(context.Background(), eng, other, q); err == nil {
		t.Error("schema mismatch should fail")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eval(ctx, eng, rel, q); err != context.Canceled {
		t.Errorf("canceled context: err = %v, want context.Canceled", err)
	}
}
