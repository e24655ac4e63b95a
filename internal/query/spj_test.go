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
	"repro/internal/relation"
)

// The SPJ fixtures split a model's joined schema back into base
// relations: BN8 (a0..a3, card 2) learned over its full schema becomes
// people(a0, a1, joinkey) ⋈ cities(joinkey, a2, a3). CompileSPJ must
// reassemble exactly the relation the model was learned over, so the
// join-then-derive-everything oracle is deriveAll over spj.SourceRelation().

// spjModel learns a BN8 model; nLeft is the split point between the
// people and cities halves of its schema.
func spjModel(t testing.TB, seed int64) (*core.Model, *bn.Instance, *rand.Rand, int) {
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
	return m, inst, rng, train.Schema.NumAttrs() / 2
}

func cloneAttr(a relation.Attribute) relation.Attribute {
	return relation.Attribute{Name: a.Name, Domain: append([]string(nil), a.Domain...)}
}

// spjSchemas builds the base schemas: people carries the model's left
// attributes plus a trailing "joinkey" FK, cities a leading "joinkey" PK
// plus the right attributes.
func spjSchemas(s *relation.Schema, nLeft int, keys []string) (people, cities *relation.Schema) {
	var pa []relation.Attribute
	for _, a := range s.Attrs[:nLeft] {
		pa = append(pa, cloneAttr(a))
	}
	pa = append(pa, relation.Attribute{Name: "joinkey", Domain: append([]string(nil), keys...)})
	ca := []relation.Attribute{{Name: "joinkey", Domain: append([]string(nil), keys...)}}
	for _, a := range s.Attrs[nLeft:] {
		ca = append(ca, cloneAttr(a))
	}
	return relation.MustSchema(pa), relation.MustSchema(ca)
}

// cityTuple assembles one cities row: key j plus the right half of a
// model-schema sample.
func cityTuple(cs *relation.Schema, sample relation.Tuple, nLeft, j int) relation.Tuple {
	tu := make(relation.Tuple, cs.NumAttrs())
	tu[0] = j
	for i := nLeft; i < len(sample); i++ {
		tu[1+i-nLeft] = sample[i]
	}
	return tu
}

// personTuple assembles one people row: the left half of a model-schema
// sample plus FK city (relation.Missing for a missing FK).
func personTuple(ps *relation.Schema, sample relation.Tuple, nLeft, city int) relation.Tuple {
	tu := make(relation.Tuple, ps.NumAttrs())
	copy(tu, sample[:nLeft])
	tu[nLeft] = city
	return tu
}

// spjSafeFixture builds base relations whose every plan is safe: cities
// are complete (no uncertain base tuple to share), while people mix
// complete rows, missing left attributes, missing FKs (whole right side
// inferred), and a dangling FK (key c5 has no cities row). Damaged rows
// repeat a small pattern pool so the oracle derivation stays cheap.
func spjSafeFixture(t testing.TB, seed int64) (*core.Model, *relation.Relation, *relation.Relation) {
	t.Helper()
	m, inst, rng, nLeft := spjModel(t, seed)
	keys := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	ps, cs := spjSchemas(m.Schema, nLeft, keys)

	cities := relation.NewRelation(cs)
	for j := 0; j < 5; j++ { // c5 stays absent: FKs to it dangle
		if err := cities.Append(cityTuple(cs, inst.Sample(rng), nLeft, j)); err != nil {
			t.Fatal(err)
		}
	}

	pool := make([]relation.Tuple, 8)
	for p := range pool {
		tu := personTuple(ps, inst.Sample(rng), nLeft, rng.Intn(5))
		switch p % 4 {
		case 0: // one left attribute missing
			tu[rng.Intn(nLeft)] = relation.Missing
		case 1: // left attribute and FK missing
			tu[rng.Intn(nLeft)] = relation.Missing
			tu[nLeft] = relation.Missing
		case 2: // FK missing: the whole right side becomes inference
			tu[nLeft] = relation.Missing
		case 3: // dangling FK
			tu[nLeft] = 5
		}
		pool[p] = tu
	}
	people := relation.NewRelation(ps)
	for i := 0; i < 108; i++ {
		tu := personTuple(ps, inst.Sample(rng), nLeft, rng.Intn(5))
		if i%2 == 1 {
			tu = pool[i%len(pool)].Clone()
		}
		if err := people.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return m, people, cities
}

func spjSpec(s Spec, people, cities *relation.Relation) SPJSpec {
	return SPJSpec{
		Spec:   s,
		Inputs: []SPJInput{{Name: "people", Rel: people}, {Name: "cities", Rel: cities}},
		Joins:  []SPJJoin{{LeftAttr: "joinkey", RightAttr: "joinkey"}},
	}
}

// TestSPJSafeMatchesOracle is the tentpole property: safe plans evaluated
// extensionally are bit-identical to joining and deriving everything,
// across every operator, worker count, and cache bound — including an
// always-evicting cache.
func TestSPJSafeMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{101, 102} {
		model, people, cities := spjSafeFixture(t, seed)
		anyPred := Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 0}}}
		probe, err := CompileSPJ(model.Schema, spjSpec(anyPred, people, cities))
		if err != nil {
			t.Fatal(err)
		}
		if !probe.Safe() {
			t.Fatalf("complete cities must make every plan safe: %+v", probe.JoinInfo())
		}
		if probe.SourceRelation().Len() != people.Len() {
			t.Fatalf("join changed the row count: %d vs %d", probe.SourceRelation().Len(), people.Len())
		}
		items := deriveAll(t, model, probe.SourceRelation(), engineConfig(4))

		cfgs := []derive.Config{engineConfig(2), engineConfig(4), engineConfig(8)}
		evicting := engineConfig(2)
		evicting.CacheEntries = 1
		cfgs = append(cfgs, evicting)
		var engines []*derive.Engine
		for _, cfg := range cfgs {
			eng, err := derive.New(model, cfg)
			if err != nil {
				t.Fatal(err)
			}
			engines = append(engines, eng)
		}

		rng := rand.New(rand.NewSource(seed * 103))
		for _, op := range []Op{Count, Exists, TopK, GroupBy} {
			for round := 0; round < 3; round++ {
				spec := randomSpec(rng, model.Schema, op)
				spj, err := CompileSPJ(model.Schema, spjSpec(spec, people, cities))
				if err != nil {
					t.Fatal(err)
				}
				if !spj.Safe() {
					t.Fatalf("%v round %d: plan over complete cities reported unsafe", op, round)
				}
				for wi, eng := range engines {
					res, err := Eval(ctx, eng, spj, spj.Query(), Options{})
					if err != nil {
						t.Fatalf("%v round %d engine %d: %v", op, round, wi, err)
					}
					if res.Dissociated || res.Bounds != nil {
						t.Fatalf("%v round %d: safe plan flagged dissociated: %+v", op, round, res)
					}
					if res.Plan == nil || res.Plan.Join == nil || !res.Plan.Join.Safe {
						t.Fatalf("%v round %d: join section missing from plan: %+v", op, round, res.Plan)
					}
					checkOracle(t, spj.Query().String(), spj.Query(), res, items, model.Schema)
				}
			}
		}
	}
}

// spjUnsafeFixture builds a minimal unsafe workload: cities c0 and c1
// miss attribute a<nLeft> (the predicate target) and are each shared by
// live rows; c2 and c3 are complete with a value that refutes the
// predicate. Returns the predicate's attribute and most likely value.
func spjUnsafeFixture(t testing.TB, seed int64) (*core.Model, *relation.Relation, *relation.Relation, int, int) {
	t.Helper()
	m, inst, rng, nLeft := spjModel(t, seed)
	pa := nLeft // first right-side model attribute
	freq := make([]int, m.Schema.Attrs[pa].Card())
	for i := 0; i < 500; i++ {
		freq[inst.Sample(rng)[pa]]++
	}
	v := 0
	for val, c := range freq {
		if c > freq[v] {
			v = val
		}
	}

	keys := []string{"c0", "c1", "c2", "c3"}
	ps, cs := spjSchemas(m.Schema, nLeft, keys)
	cities := relation.NewRelation(cs)
	for j := 0; j < 4; j++ {
		tu := cityTuple(cs, inst.Sample(rng), nLeft, j)
		if j < 2 {
			tu[1+pa-nLeft] = relation.Missing // the shared uncertain attribute
		} else if tu[1+pa-nLeft] == v {
			tu[1+pa-nLeft] = (v + 1) % m.Schema.Attrs[pa].Card() // complete cities never satisfy
		}
		if err := cities.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	people := relation.NewRelation(ps)
	for i, city := range []int{0, 0, 1, 1, 2, 2, 3, 3, 0, 1} {
		_ = i
		if err := people.Append(personTuple(ps, inst.Sample(rng), nLeft, city)); err != nil {
			t.Fatal(err)
		}
	}
	return m, people, cities, pa, v
}

// TestSPJUnsafeExistsBounds: an unsafe exists answer is flagged
// Dissociated with a [lo, hi] interval that contains the oracle mass,
// and a threshold the interval clears or refutes is decided without a
// single derivation.
func TestSPJUnsafeExistsBounds(t *testing.T) {
	ctx := context.Background()
	model, people, cities, pa, v := spjUnsafeFixture(t, 111)
	preds := []Pred{{Attr: pa, Cmp: Eq, Value: v}}

	spj, err := CompileSPJ(model.Schema, spjSpec(Spec{Op: Exists, Preds: preds}, people, cities))
	if err != nil {
		t.Fatal(err)
	}
	if spj.Safe() {
		t.Fatal("shared uncertain cities must make the plan unsafe")
	}
	ji := spj.JoinInfo()
	if ji.SharedUncertain != 2 {
		t.Fatalf("SharedUncertain = %d, want 2 (c0 and c1): %+v", ji.SharedUncertain, ji)
	}
	if !strings.Contains(ji.Verdict, "unsafe") {
		t.Fatalf("verdict does not say unsafe: %q", ji.Verdict)
	}
	if got := []string{"people", "cities"}; ji.Relations[0] != got[0] || ji.Relations[1] != got[1] {
		t.Fatalf("join order %v, want %v", ji.Relations, got)
	}
	if len(ji.Conditions) != 1 || ji.Conditions[0] != "people.joinkey = cities.joinkey" {
		t.Fatalf("join conditions %v", ji.Conditions)
	}

	cfg := engineConfig(2)
	items := deriveAll(t, model, spj.SourceRelation(), cfg)
	prob := oracleExists(preds, items)
	if !(prob > 0 && prob < 1) {
		t.Fatalf("degenerate fixture: oracle existence mass %v", prob)
	}
	eng, err := derive.New(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(ctx, eng, spj, spj.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "unsafe exists", spj.Query(), res, items, model.Schema)
	if !res.Dissociated {
		t.Fatalf("unsafe exists not flagged dissociated: %+v", res)
	}
	if res.Bounds == nil || res.Bounds.Lo > prob || res.Bounds.Hi < prob {
		t.Fatalf("bounds %+v do not contain the oracle mass %v", res.Bounds, prob)
	}
	if res.Bounds.Lo > res.Prob || res.Bounds.Hi < res.Prob {
		t.Fatalf("bounds %+v do not contain the reported probability %v", res.Bounds, res.Prob)
	}
	lo, hi := res.Bounds.Lo, res.Bounds.Hi
	if !(lo > 0 && hi < 1) {
		t.Fatalf("fixture cannot exercise both threshold sides: bounds [%v, %v]", lo, hi)
	}

	// Threshold at the lower bound: the interval alone answers yes.
	spjYes, err := CompileSPJ(model.Schema, spjSpec(Spec{Op: Exists, Preds: preds, MinProb: lo}, people, cities))
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := Eval(ctx, eng, spjYes, spjYes.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !resYes.Exists || !resYes.EarlyStop || resYes.Counters.Derived != 0 {
		t.Fatalf("interval did not decide yes without derivation: %+v", resYes)
	}
	if resYes.Prob != lo || resYes.Bounds == nil {
		t.Fatalf("deciding side not reported: %+v", resYes)
	}
	checkOracle(t, "unsafe exists yes", spjYes.Query(), resYes, items, model.Schema)

	// Threshold above the upper bound: even the dissociated over-count
	// cannot reach it — no, again without derivation.
	no := hi + (1-hi)/2
	spjNo, err := CompileSPJ(model.Schema, spjSpec(Spec{Op: Exists, Preds: preds, MinProb: no}, people, cities))
	if err != nil {
		t.Fatal(err)
	}
	resNo, err := Eval(ctx, eng, spjNo, spjNo.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resNo.Exists || !resNo.EarlyStop || resNo.Counters.Derived != 0 {
		t.Fatalf("interval did not refute without derivation: %+v", resNo)
	}
	if resNo.Prob != hi {
		t.Fatalf("refuting side not reported: Prob = %v, want %v", resNo.Prob, hi)
	}
	checkOracle(t, "unsafe exists no", spjNo.Query(), resNo, items, model.Schema)

	// Linear operators stay exact over the same unsafe plan and are not
	// flagged.
	spjCount, err := CompileSPJ(model.Schema, spjSpec(Spec{Op: Count, Preds: preds}, people, cities))
	if err != nil {
		t.Fatal(err)
	}
	resCount, err := Eval(ctx, eng, spjCount, spjCount.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resCount.Dissociated || resCount.Bounds != nil {
		t.Fatalf("linear count flagged dissociated: %+v", resCount)
	}
	checkOracle(t, "unsafe count", spjCount.Query(), resCount, items, model.Schema)

	st := eng.Stats()
	if st.QueriesDissociated == 0 {
		t.Fatalf("engine stats did not record dissociated queries: %+v", st)
	}
}

// oracleProject replays the projected distinct-answer fold naively over
// the full derivation stream: per row, satisfying mass per projected
// value in block order; across rows, an independence product in input
// order; answers in first-appearance order.
func oracleProject(items []derive.Item, preds []Pred, project []int, minProb float64) []Row {
	type acc struct {
		first int
		tuple relation.Tuple
		miss  float64
	}
	var order []*acc
	seen := make(map[string]*acc)
	for _, it := range items {
		type ent struct {
			key  string
			proj relation.Tuple
			mass float64
		}
		var entries []ent
		idx := make(map[string]int)
		addAlt := func(u relation.Tuple, p float64) {
			if !holdsAll(preds, u) {
				return
			}
			var kb []byte
			for _, a := range project {
				kb = appendKeyCode(kb, u[a])
			}
			k := string(kb)
			if j, ok := idx[k]; ok {
				entries[j].mass += p
				return
			}
			proj := make(relation.Tuple, len(project))
			for pi, a := range project {
				proj[pi] = u[a]
			}
			idx[k] = len(entries)
			entries = append(entries, ent{k, proj, p})
		}
		if it.Certain() {
			addAlt(it.Tuple, 1)
		} else {
			for _, a := range it.Block.Alts {
				addAlt(a.Tuple, a.Prob)
			}
		}
		for _, e := range entries {
			a := seen[e.key]
			if a == nil {
				a = &acc{first: it.Index, tuple: e.proj, miss: 1}
				seen[e.key] = a
				order = append(order, a)
			}
			a.miss *= 1 - e.mass
		}
	}
	var rows []Row
	for _, a := range order {
		p := 1 - a.miss
		if minProb > 0 && p < minProb {
			continue
		}
		rows = append(rows, Row{Index: a.first, Tuple: a.tuple, Prob: p, Certain: p >= 1})
	}
	return rows
}

// TestSPJProjection: distinct-answer mode over a safe plan is
// bit-identical to the naive projected fold, for expected and thresholded
// counts and for topk, at several worker counts.
func TestSPJProjection(t *testing.T) {
	ctx := context.Background()
	model, people, cities := spjSafeFixture(t, 131)
	nAttrs := model.Schema.NumAttrs()
	project := []string{model.Schema.Attrs[0].Name, model.Schema.Attrs[nAttrs-1].Name}
	projIdx := []int{0, nAttrs - 1}
	preds := []Pred{{Attr: 1, Cmp: Ge, Value: 1}}

	probe, err := CompileSPJ(model.Schema, spjSpec(Spec{Op: Count, Preds: preds}, people, cities))
	if err != nil {
		t.Fatal(err)
	}
	items := deriveAll(t, model, probe.SourceRelation(), engineConfig(4))

	var engines []*derive.Engine
	for _, w := range []int{2, 8} {
		eng, err := derive.New(model, engineConfig(w))
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
	}

	cases := []struct {
		name string
		spec Spec
	}{
		{"expected count", Spec{Op: Count, Preds: preds}},
		{"thresholded count", Spec{Op: Count, Preds: preds, MinProb: 0.3}},
		{"topk", Spec{Op: TopK, Preds: preds, K: 4}},
		{"topk thresholded", Spec{Op: TopK, Preds: preds, MinProb: 0.5}},
	}
	for _, tc := range cases {
		ss := spjSpec(tc.spec, people, cities)
		ss.Project = project
		spj, err := CompileSPJ(model.Schema, ss)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spj.AnswerSchema() == nil || spj.AnswerSchema().NumAttrs() != len(project) {
			t.Fatalf("%s: answer schema %+v", tc.name, spj.AnswerSchema())
		}
		for i, name := range project {
			if spj.AnswerSchema().Attrs[i].Name != name {
				t.Fatalf("%s: answer attr %d = %q, want %q", tc.name, i, spj.AnswerSchema().Attrs[i].Name, name)
			}
		}
		want := oracleProject(items, preds, projIdx, tc.spec.MinProb)
		for wi, eng := range engines {
			res, err := Eval(ctx, eng, spj, spj.Query(), Options{})
			if err != nil {
				t.Fatalf("%s engine %d: %v", tc.name, wi, err)
			}
			if res.Dissociated {
				t.Fatalf("%s: safe projected plan flagged dissociated", tc.name)
			}
			switch tc.spec.Op {
			case Count:
				var expected float64
				var count int64
				if tc.spec.MinProb > 0 {
					count = int64(len(want))
				} else {
					for _, r := range want {
						expected += r.Prob
					}
				}
				if res.Expected != expected || res.Count != count {
					t.Fatalf("%s engine %d: (%v, %d), want bit-identical (%v, %d)",
						tc.name, wi, res.Expected, res.Count, expected, count)
				}
			case TopK:
				sorted := append([]Row(nil), want...)
				sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Prob > sorted[b].Prob })
				if tc.spec.K > 0 && len(sorted) > tc.spec.K {
					sorted = sorted[:tc.spec.K]
				}
				requireRowsEqual(t, tc.name, res.Rows, sorted)
			}
			if res.Plan == nil || res.Plan.Join == nil || len(res.Plan.Join.Projection) != len(project) {
				t.Fatalf("%s: plan projection missing: %+v", tc.name, res.Plan)
			}
			if s := res.Plan.String(); !strings.Contains(s, "projection:") || !strings.Contains(s, "join order:") {
				t.Fatalf("%s: explain rendering incomplete:\n%s", tc.name, s)
			}
		}
	}

	// A projected unsafe plan is dissociated but still bit-identical to
	// the naive fold (the oracle derives independent blocks too).
	um, upeople, ucities, pa, v := spjUnsafeFixture(t, 137)
	upreds := []Pred{{Attr: pa, Cmp: Eq, Value: v}}
	uspec := spjSpec(Spec{Op: TopK, Preds: upreds, K: 3}, upeople, ucities)
	uspec.Project = []string{um.Schema.Attrs[pa].Name}
	uspj, err := CompileSPJ(um.Schema, uspec)
	if err != nil {
		t.Fatal(err)
	}
	if uspj.Safe() {
		t.Fatal("projected unsafe fixture reported safe")
	}
	ucfg := engineConfig(2)
	uitems := deriveAll(t, um, uspj.SourceRelation(), ucfg)
	ueng, err := derive.New(um, ucfg)
	if err != nil {
		t.Fatal(err)
	}
	ures, err := Eval(ctx, ueng, uspj, uspj.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ures.Dissociated {
		t.Fatalf("projected unsafe plan not flagged dissociated: %+v", ures)
	}
	uwant := oracleProject(uitems, upreds, []int{pa}, 0)
	sort.SliceStable(uwant, func(a, b int) bool { return uwant[a].Prob > uwant[b].Prob })
	if len(uwant) > 3 {
		uwant = uwant[:3]
	}
	requireRowsEqual(t, "projected unsafe topk", ures.Rows, uwant)

	// Projection is rejected for operators without distinct answers.
	bad := spjSpec(Spec{Op: Exists, Preds: preds}, people, cities)
	bad.Project = project
	if _, err := CompileSPJ(model.Schema, bad); err == nil ||
		!strings.Contains(err.Error(), "count and topk") {
		t.Fatalf("projection on exists: err = %v", err)
	}
}

// TestSPJSafetyAnalyzer pins the safety verdict on targeted shapes:
// sharing alone is not unsafe — the shared tuple must be uncertain in an
// attribute the query depends on, on rows the query cannot refute.
func TestSPJSafetyAnalyzer(t *testing.T) {
	m, inst, rng, nLeft := spjModel(t, 141)
	s := m.Schema
	pa := nLeft     // first right-side attribute
	pb := nLeft + 1 // second right-side attribute
	keys := []string{"c0", "c1", "c2", "c3"}
	ps, cs := spjSchemas(s, nLeft, keys)

	// c0 misses pa, c1 misses pb, c2 and c3 are complete.
	cities := relation.NewRelation(cs)
	for j := 0; j < 4; j++ {
		tu := cityTuple(cs, inst.Sample(rng), nLeft, j)
		switch j {
		case 0:
			tu[1+pa-nLeft] = relation.Missing
		case 1:
			tu[1+pb-nLeft] = relation.Missing
		}
		if err := cities.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	peopleFor := func(citiesOf []int, mutate func(i int, tu relation.Tuple)) *relation.Relation {
		people := relation.NewRelation(ps)
		for i, c := range citiesOf {
			tu := personTuple(ps, inst.Sample(rng), nLeft, c)
			if mutate != nil {
				mutate(i, tu)
			}
			if err := people.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
		return people
	}
	compile := func(spec Spec, people *relation.Relation) *SPJ {
		t.Helper()
		spj, err := CompileSPJ(s, spjSpec(spec, people, cities))
		if err != nil {
			t.Fatal(err)
		}
		return spj
	}
	predOn := func(a int) []Pred { return []Pred{{Attr: a, Cmp: Eq, Value: 0}} }

	// Sharing a complete city is safe.
	if spj := compile(Spec{Op: Count, Preds: predOn(pa)}, peopleFor([]int{2, 2, 2}, nil)); !spj.Safe() {
		t.Fatalf("shared complete tuple reported unsafe: %+v", spj.JoinInfo())
	}
	// Sharing c0 (missing pa) under a predicate on pb only: the missing
	// attribute is irrelevant to the query.
	if spj := compile(Spec{Op: Count, Preds: predOn(pb)}, peopleFor([]int{0, 0}, nil)); !spj.Safe() {
		t.Fatalf("irrelevant missing attribute reported unsafe: %+v", spj.JoinInfo())
	}
	// Same sharing with the predicate on pa: unsafe, one shared tuple.
	if spj := compile(Spec{Op: Count, Preds: predOn(pa)}, peopleFor([]int{0, 0}, nil)); spj.Safe() || spj.JoinInfo().SharedUncertain != 1 {
		t.Fatalf("relevant shared tuple not flagged: %+v", spj.JoinInfo())
	}
	// Both sharing rows refuted on the left side: the engine never touches
	// them, so the plan is safe again.
	refuted := peopleFor([]int{0, 0}, func(i int, tu relation.Tuple) { tu[0] = 1 })
	spec := Spec{Op: Count, Preds: append(predOn(pa), Pred{Attr: 0, Cmp: Eq, Value: 0})}
	if spj := compile(spec, refuted); !spj.Safe() {
		t.Fatalf("refuted sharing rows reported unsafe: %+v", spj.JoinInfo())
	}
	// Dangling and missing FKs never share lineage: each row's right side
	// is its own independent unknown.
	dangling := peopleFor([]int{3, 3}, func(i int, tu relation.Tuple) {
		if i == 0 {
			tu[nLeft] = relation.Missing
		}
	})
	if spj := compile(Spec{Op: Count, Preds: predOn(pa)}, dangling); !spj.Safe() {
		t.Fatalf("dangling rows reported unsafe: %+v", spj.JoinInfo())
	}
	// The group attribute and the projection make an attribute relevant
	// even without a predicate on it.
	full := []Pred{{Attr: 0, Cmp: Ge, Value: 0}} // full satisfying set: constrains nothing
	if spj := compile(Spec{Op: GroupBy, Preds: full, GroupBy: s.Attrs[pa].Name}, peopleFor([]int{0, 0}, nil)); spj.Safe() {
		t.Fatalf("groupby on shared missing attribute reported safe: %+v", spj.JoinInfo())
	}
	proj := spjSpec(Spec{Op: Count, Preds: full}, peopleFor([]int{0, 0}, nil), cities)
	proj.Project = []string{s.Attrs[pa].Name}
	if spj, err := CompileSPJ(s, proj); err != nil {
		t.Fatal(err)
	} else if spj.Safe() {
		t.Fatalf("projection of shared missing attribute reported safe: %+v", spj.JoinInfo())
	}
}

// TestParseSPJ pins the statement grammar.
func TestParseSPJ(t *testing.T) {
	good := []struct {
		in   string
		want SPJText
	}{
		{"from people", SPJText{Base: "people"}},
		{"select * from people", SPJText{Base: "people"}},
		{"SELECT a0, a2 FROM people JOIN cities ON joinkey = joinkey WHERE a1=v0",
			SPJText{Project: []string{"a0", "a2"}, Base: "people",
				Joins: []SPJTextJoin{{Rel: "cities", LeftAttr: "joinkey", RightAttr: "joinkey"}},
				Where: "a1=v0"}},
		{"from a join b on x=y join c on u=w",
			SPJText{Base: "a", Joins: []SPJTextJoin{
				{Rel: "b", LeftAttr: "x", RightAttr: "y"},
				{Rel: "c", LeftAttr: "u", RightAttr: "w"}}}},
		{"from people where a0=v1, a1!=v0",
			SPJText{Base: "people", Where: "a0=v1, a1!=v0"}},
	}
	for _, tc := range good {
		got, err := ParseSPJ(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if got.Base != tc.want.Base || got.Where != tc.want.Where ||
			len(got.Project) != len(tc.want.Project) || len(got.Joins) != len(tc.want.Joins) {
			t.Fatalf("%q: %+v, want %+v", tc.in, got, tc.want)
		}
		for i := range got.Project {
			if got.Project[i] != tc.want.Project[i] {
				t.Fatalf("%q: projection %v, want %v", tc.in, got.Project, tc.want.Project)
			}
		}
		for i := range got.Joins {
			if got.Joins[i] != tc.want.Joins[i] {
				t.Fatalf("%q: joins %v, want %v", tc.in, got.Joins, tc.want.Joins)
			}
		}
	}

	bad := []string{
		"",
		"people",                        // no from
		"select from people",            // empty projection
		"select a,,b from people",       // empty projection column
		"from",                          // no base
		"from a b",                      // two base names
		"from a join on x=y",            // join without relation
		"from a join b on",              // empty condition
		"from a join b on xy",           // no '='
		"from a join b on x=",           // half condition
		"from a join b x=y",             // missing 'on'
		"from a where",                  // empty where
		"select a from b trailing junk", // unparsed tail
	}
	for _, in := range bad {
		if _, err := ParseSPJ(in); err == nil {
			t.Fatalf("%q: expected parse error", in)
		}
	}

	// Relations lists base first, preserving duplicates for self-joins.
	st, err := ParseSPJ("from a join a on x=x")
	if err != nil {
		t.Fatal(err)
	}
	if rels := st.Relations(); len(rels) != 2 || rels[0] != "a" || rels[1] != "a" {
		t.Fatalf("Relations() = %v", rels)
	}
}

// TestSPJTextBind covers binding statements to inputs and the end-to-end
// parse → bind → compile → eval path, including the where tail.
func TestSPJTextBind(t *testing.T) {
	model, people, cities := spjSafeFixture(t, 151)
	s := model.Schema
	inputs := map[string]*relation.Relation{"people": people, "cities": cities}

	stmt := "from people join cities on joinkey=joinkey where " +
		s.Attrs[0].Name + "=" + s.Attrs[0].Domain[0]
	st, err := ParseSPJ(stmt)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := st.Bind(inputs, Spec{Op: Count}, false)
	if err != nil {
		t.Fatal(err)
	}
	spj, err := CompileSPJ(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := derive.New(model, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), eng, spj, spj.Query(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := deriveAll(t, model, spj.SourceRelation(), engineConfig(2))
	checkOracle(t, "bound statement", spj.Query(), res, items, s)

	// A where both in the statement and in the spec is ambiguous.
	if _, err := st.Bind(inputs, Spec{Op: Count, Where: "x=y"}, false); err == nil {
		t.Fatal("double where should fail")
	}
	// Unknown relation names are rejected at bind time.
	st2, err := ParseSPJ("from people join towns on joinkey=joinkey")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Bind(inputs, Spec{Op: Count}, false); err == nil ||
		!strings.Contains(err.Error(), "towns") {
		t.Fatalf("unknown relation: err = %v", err)
	}
}

// TestCompileSPJValidation covers the compiler's error paths and the
// KeepKeys alignment (kept keys are dropped from the model-aligned
// relation, so both settings produce the same joined tuples).
func TestCompileSPJValidation(t *testing.T) {
	model, people, cities := spjSafeFixture(t, 161)
	s := model.Schema
	ok := spjSpec(Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 0}}}, people, cities)

	if _, err := CompileSPJ(nil, ok); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := CompileSPJ(s, SPJSpec{Spec: Spec{Op: Count}}); err == nil {
		t.Error("no inputs should fail")
	}
	mismatch := ok
	mismatch.Joins = nil
	if _, err := CompileSPJ(s, mismatch); err == nil {
		t.Error("join/input count mismatch should fail")
	}
	unnamed := ok
	unnamed.Inputs = []SPJInput{{Rel: people}, {Name: "cities", Rel: cities}}
	if _, err := CompileSPJ(s, unnamed); err == nil {
		t.Error("unnamed input should fail")
	}
	nilRel := ok
	nilRel.Inputs = []SPJInput{{Name: "people"}, {Name: "cities", Rel: cities}}
	if _, err := CompileSPJ(s, nilRel); err == nil {
		t.Error("nil input relation should fail")
	}
	badLeft := ok
	badLeft.Joins = []SPJJoin{{LeftAttr: "nope", RightAttr: "joinkey"}}
	if _, err := CompileSPJ(s, badLeft); err == nil || !strings.Contains(err.Error(), "left key") {
		t.Errorf("unknown left key: err = %v", err)
	}
	badRight := ok
	badRight.Joins = []SPJJoin{{LeftAttr: "joinkey", RightAttr: "nope"}}
	if _, err := CompileSPJ(s, badRight); err == nil || !strings.Contains(err.Error(), "right key") {
		t.Errorf("unknown right key: err = %v", err)
	}
	dup := ok
	dup.Spec = Spec{Op: TopK, K: 1, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 0}}}
	dup.Project = []string{s.Attrs[0].Name, s.Attrs[0].Name}
	if _, err := CompileSPJ(s, dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate projection: err = %v", err)
	}
	unknownProj := ok
	unknownProj.Spec = Spec{Op: TopK, K: 1, Preds: []Pred{{Attr: 0, Cmp: Ge, Value: 0}}}
	unknownProj.Project = []string{"nope"}
	if _, err := CompileSPJ(s, unknownProj); err == nil || !strings.Contains(err.Error(), "projection") {
		t.Errorf("unknown projection attribute: err = %v", err)
	}

	// A label outside the model domain is rejected during re-encoding.
	alien := relation.NewRelation(relation.MustSchema([]relation.Attribute{
		{Name: s.Attrs[0].Name, Domain: []string{"not-a-model-label"}},
		{Name: "joinkey", Domain: append([]string(nil), people.Schema.Attrs[people.Schema.NumAttrs()-1].Domain...)},
	}))
	if err := alien.Append(relation.Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}
	alienSpec := ok
	alienSpec.Inputs = []SPJInput{{Name: "people", Rel: alien}, {Name: "cities", Rel: cities}}
	if _, err := CompileSPJ(s, alienSpec); err == nil || !strings.Contains(err.Error(), "not in the model domain") {
		t.Errorf("alien label: err = %v", err)
	}

	// KeepKeys changes the joined schema but not the model-aligned
	// relation: key columns are dropped at alignment either way.
	base, err := CompileSPJ(s, ok)
	if err != nil {
		t.Fatal(err)
	}
	kept := ok
	kept.KeepKeys = true
	withKeys, err := CompileSPJ(s, kept)
	if err != nil {
		t.Fatal(err)
	}
	if base.SourceRelation().Len() != withKeys.SourceRelation().Len() {
		t.Fatalf("KeepKeys changed the row count: %d vs %d", base.SourceRelation().Len(), withKeys.SourceRelation().Len())
	}
	for i := range base.SourceRelation().Tuples {
		if !base.SourceRelation().Tuples[i].Equal(withKeys.SourceRelation().Tuples[i]) {
			t.Fatalf("KeepKeys changed aligned row %d: %v vs %v",
				i, base.SourceRelation().Tuples[i], withKeys.SourceRelation().Tuples[i])
		}
	}

	// Compilation never mutates the caller's relations.
	before := people.Tuples[0].Clone()
	if _, err := CompileSPJ(s, ok); err != nil {
		t.Fatal(err)
	}
	if !people.Tuples[0].Equal(before) {
		t.Fatal("CompileSPJ mutated an input relation")
	}
}
