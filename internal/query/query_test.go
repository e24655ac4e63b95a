package query

import (
	"math"
	"strings"
	"testing"

	"repro/internal/relation"
)

func testSchema() *relation.Schema {
	return relation.MustSchema([]relation.Attribute{
		{Name: "age", Domain: []string{"20", "30", "40"}},
		{Name: "inc", Domain: []string{"50K", "100K"}},
		{Name: "edu", Domain: []string{"HS", "BS", "MS"}},
	})
}

func TestOpRoundTrip(t *testing.T) {
	for _, op := range []Op{Count, Exists, TopK, GroupBy} {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v", op.String(), got, err)
		}
	}
	if _, err := ParseOp("explode"); err == nil {
		t.Error("unknown op should fail")
	}
}

func TestParseWhere(t *testing.T) {
	s := testSchema()
	preds, err := ParseWhere(s, "age=30, inc>=100K ,edu!=HS")
	if err != nil {
		t.Fatal(err)
	}
	want := []Pred{
		{Attr: 0, Cmp: Eq, Value: 1},
		{Attr: 1, Cmp: Ge, Value: 1},
		{Attr: 2, Cmp: Ne, Value: 0},
	}
	if len(preds) != len(want) {
		t.Fatalf("parsed %d predicates, want %d", len(preds), len(want))
	}
	for i, p := range preds {
		if p != want[i] {
			t.Errorf("pred %d = %+v, want %+v", i, p, want[i])
		}
	}

	for _, bad := range []string{
		"", "  ", ",", "age", "age=", "=30", "bogus=30", "age=99",
		"age=30,,inc=50K", "age<>30", "age=30,bogus<1", "age=30,",
	} {
		if _, err := ParseWhere(s, bad); err == nil {
			t.Errorf("where %q should fail", bad)
		}
	}
}

// TestParseWhereErrorNamesClause: a malformed clause is reported by its
// 1-based position and text, so "age=30," doesn't fail with an unanchored
// complaint about an invisible empty condition.
func TestParseWhereErrorNamesClause(t *testing.T) {
	s := testSchema()
	cases := []struct {
		where string
		want  []string
	}{
		{"age=30,", []string{"clause 2 of 2"}},
		{"age=30,,inc=50K", []string{"clause 2 of 3"}},
		{"age=30,bogus<1", []string{"clause 2 of 2", `"bogus<1"`, "unknown attribute"}},
		{"age=99", []string{"clause 1 of 1", `"age=99"`}},
	}
	for _, c := range cases {
		_, err := ParseWhere(s, c.where)
		if err == nil {
			t.Errorf("where %q should fail", c.where)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("ParseWhere(%q) error %q missing %q", c.where, err, w)
			}
		}
	}
}

// TestParseWhereLabelWithOperatorChars: the operator is the earliest
// comparison token, so bucket labels that themselves contain comparison
// characters still parse.
func TestParseWhereLabelWithOperatorChars(t *testing.T) {
	s := relation.MustSchema([]relation.Attribute{
		{Name: "inc", Domain: []string{"<100K", ">=100K"}},
	})
	preds, err := ParseWhere(s, "inc=>=100K")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0] != (Pred{Attr: 0, Cmp: Eq, Value: 1}) {
		t.Errorf("parsed %+v", preds)
	}
}

func TestCompileValidation(t *testing.T) {
	s := testSchema()
	cases := []struct {
		name string
		spec Spec
	}{
		{"no predicates", Spec{Op: Count}},
		{"exists without predicates", Spec{Op: Exists}},
		{"unknown op", Spec{Op: Op(9), Where: "age=30"}},
		{"attr out of range", Spec{Op: Count, Preds: []Pred{{Attr: 9, Cmp: Eq, Value: 0}}}},
		{"value out of range", Spec{Op: Count, Preds: []Pred{{Attr: 1, Cmp: Eq, Value: 5}}}},
		{"unknown comparison", Spec{Op: Count, Preds: []Pred{{Attr: 0, Cmp: Cmp(9), Value: 0}}}},
		{"groupby without attribute", Spec{Op: GroupBy}},
		{"groupby unknown attribute", Spec{Op: GroupBy, GroupBy: "bogus"}},
		{"group attribute on count", Spec{Op: Count, Where: "age=30", GroupBy: "age"}},
		{"minprob below range", Spec{Op: Count, Where: "age=30", MinProb: -0.1}},
		{"minprob above range", Spec{Op: Count, Where: "age=30", MinProb: 1.5}},
		{"minprob NaN", Spec{Op: Count, Where: "age=30", MinProb: math.NaN()}},
		{"minprob on groupby", Spec{Op: GroupBy, GroupBy: "age", MinProb: 0.5}},
		{"k on groupby", Spec{Op: GroupBy, GroupBy: "age", K: 3}},
		{"k on count", Spec{Op: Count, Where: "age=30", K: 5}},
		{"bad where", Spec{Op: Count, Where: "age@30"}},
	}
	for _, c := range cases {
		if _, err := Compile(s, c.spec); err == nil {
			t.Errorf("%s: Compile should fail", c.name)
		}
	}
	if _, err := Compile(nil, Spec{Op: Count, Where: "age=30"}); err == nil {
		t.Error("nil schema should fail")
	}
}

// TestCompileSatisfyingSets: predicates on one attribute intersect, and
// the compiled sets drive classification.
func TestCompileSatisfyingSets(t *testing.T) {
	s := testSchema()
	q, err := Compile(s, Spec{Op: Count, Where: "age>20,age<40"})
	if err != nil {
		t.Fatal(err)
	}
	set := q.sat[0]
	if set == nil || set.n != 1 || !set.contains(1) || set.contains(0) || set.contains(2) {
		t.Errorf("age in (20,40) compiled to %+v", set)
	}

	// Contradictory range: empty satisfying set refutes even a missing
	// value — no completion can satisfy.
	q, err = Compile(s, Spec{Op: Count, Where: "age<20"})
	if err != nil {
		t.Fatal(err)
	}
	if !q.refutes(relation.Tuple{relation.Missing, 0, 0}) {
		t.Error("empty satisfying set does not refute a missing value")
	}

	// Full satisfying set holds whatever the missing value.
	q, err = Compile(s, Spec{Op: Count, Where: "age>=20"})
	if err != nil {
		t.Fatal(err)
	}
	if !q.sat[0].full() || q.refutes(relation.Tuple{relation.Missing, 0, 0}) {
		t.Errorf("age>=20 compiled to %+v, want the full domain, refuting nothing", q.sat[0])
	}
}

func TestClassify(t *testing.T) {
	s := testSchema()
	q, err := Compile(s, Spec{Op: Count, Where: "age=30,inc=100K"})
	if err != nil {
		t.Fatal(err)
	}
	miss := relation.Missing
	cases := []struct {
		tuple   relation.Tuple
		refuted bool
	}{
		{relation.Tuple{1, 1, 0}, false},
		{relation.Tuple{0, 1, 0}, true},     // known age fails
		{relation.Tuple{1, 0, miss}, true},  // known inc fails
		{relation.Tuple{miss, 1, 0}, false}, // one missing, constrained
		{relation.Tuple{1, 1, miss}, false}, // missing attr unconstrained
		{relation.Tuple{miss, miss, 0}, false},
		{relation.Tuple{miss, 1, miss}, false}, // several missing, one open
	}
	for _, c := range cases {
		if got := q.refutes(c.tuple); got != c.refuted {
			t.Errorf("refutes(%v) = %v, want %v", c.tuple, got, c.refuted)
		}
	}
}

func TestQueryString(t *testing.T) {
	s := testSchema()
	q, err := Compile(s, Spec{Op: TopK, Where: "age=30,inc>=100K", K: 5, MinProb: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	str := q.String()
	for _, want := range []string{"topk", "age=30", "inc>=100K", "k=5", "minprob=0.25"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}
