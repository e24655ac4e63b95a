package repro

// SPJ benchmarks: the steady-state cost of serving one SQL statement —
// parse, bind, join-chain fold with lineage, safety analysis, and
// evaluation — on a warm engine, for a safe (hierarchical) plan and for
// an unsafe plan whose exists answer rides the dissociation-propagation
// path. Both join the bench relation's vertical split on a synthetic
// row key; only the key-sharing pattern differs.

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/relation"
)

// spjBenchInputs splits complete bench tuples vertically into
// suitors(attrs[:h], key) and profiles(key, attrs[h:]), with the first
// right attribute missing on damaged profiles (the queried attribute,
// so the uncertainty is always relevant). With share=false every left
// row owns its profile (every plan is hierarchical); with share=true
// four left rows read each profile and every profile is damaged, so
// plans that depend on the right fragment dissociate.
func spjBenchInputs(b *testing.B, env *deriveBenchEnv, share bool) (map[string]*Relation, string) {
	b.Helper()
	s := env.model.Schema
	h := s.NumAttrs() / 2
	var src []Tuple
	for _, t := range env.rel.Tuples {
		if t.IsComplete() {
			src = append(src, t)
		}
	}
	const nLeft = 240
	nRight := nLeft
	if share {
		nRight = nLeft / 4
	}
	keyDom := make([]string, nLeft)
	for i := range keyDom {
		keyDom[i] = "r" + strconv.Itoa(i)
	}
	key := relation.Attribute{Name: "key", Domain: keyDom}
	ls, err := relation.NewSchema(append(append([]relation.Attribute{}, s.Attrs[:h]...), key))
	if err != nil {
		b.Fatal(err)
	}
	rs, err := relation.NewSchema(append([]relation.Attribute{key}, s.Attrs[h:]...))
	if err != nil {
		b.Fatal(err)
	}
	left, right := NewRelation(ls), NewRelation(rs)
	for i := 0; i < nRight; i++ {
		tu := src[i%len(src)]
		rt := make(Tuple, 1+s.NumAttrs()-h)
		rt[0] = i
		copy(rt[1:], tu[h:])
		if share || i%3 == 0 {
			rt[1] = relation.Missing
		}
		if err := right.Append(rt); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < nLeft; i++ {
		tu := src[i%len(src)]
		lt := make(Tuple, h+1)
		copy(lt, tu[:h])
		lt[h] = i % nRight
		if err := left.Append(lt); err != nil {
			b.Fatal(err)
		}
	}
	stmt := "from suitors join profiles on key=key where " +
		s.Attrs[h].Name + "=" + s.Attrs[h].Domain[0]
	return map[string]*Relation{"suitors": left, "profiles": right}, stmt
}

// spjBenchOnce serves one statement end to end on the given engine.
func spjBenchOnce(eng *Engine, schema *Schema, inputs map[string]*Relation,
	stmt string, spec QuerySpec) (*QueryResult, error) {
	st, err := ParseSPJ(stmt)
	if err != nil {
		return nil, err
	}
	spjSpec, err := st.Bind(inputs, spec, false)
	if err != nil {
		return nil, err
	}
	spj, err := CompileSPJ(schema, spjSpec)
	if err != nil {
		return nil, err
	}
	return eng.Query(context.Background(), spj, spj.Query(), QueryOptions{})
}

// BenchmarkQuerySafeJoin measures the hierarchical fast path: every
// joined row owns its lineage, so the count answers exactly through the
// extensional pipeline, with the damaged profiles' votes served from
// the warm CPD cache.
func BenchmarkQuerySafeJoin(b *testing.B) {
	env := deriveBenchSetup(b)
	inputs, stmt := spjBenchInputs(b, env, false)
	eng, err := NewEngine(env.model, boundedOpts())
	if err != nil {
		b.Fatal(err)
	}
	spec := QuerySpec{Op: QueryCount}
	res, err := spjBenchOnce(eng, env.model.Schema, inputs, stmt, spec) // warm + sanity
	if err != nil {
		b.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Join == nil || !res.Plan.Join.Safe || res.Dissociated {
		b.Fatalf("fixture is not a safe plan: %+v", res.Plan)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spjBenchOnce(eng, env.model.Schema, inputs, stmt, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryDissociated measures the unsafe-exists path: shared
// damaged profiles break the hierarchy, so the answer is the
// dissociated existence mass with its sound interval, folded from
// cached per-row probabilities without any block expansion.
func BenchmarkQueryDissociated(b *testing.B) {
	env := deriveBenchSetup(b)
	inputs, stmt := spjBenchInputs(b, env, true)
	eng, err := NewEngine(env.model, boundedOpts())
	if err != nil {
		b.Fatal(err)
	}
	spec := QuerySpec{Op: QueryExists}
	res, err := spjBenchOnce(eng, env.model.Schema, inputs, stmt, spec) // warm + sanity
	if err != nil {
		b.Fatal(err)
	}
	if res.Plan == nil || res.Plan.Join == nil || res.Plan.Join.Safe || !res.Dissociated || res.Bounds == nil {
		b.Fatalf("fixture is not a dissociated exists plan: %+v", res.Plan)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spjBenchOnce(eng, env.model.Schema, inputs, stmt, spec); err != nil {
			b.Fatal(err)
		}
	}
}
