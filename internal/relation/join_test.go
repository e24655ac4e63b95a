package relation

import (
	"math/rand"
	"testing"
)

// joinFixture: a profiles relation with a city foreign key, and a cities
// relation keyed by city.
func joinFixture(t *testing.T) (*Relation, *Relation) {
	t.Helper()
	cities := []string{"chi", "nyc", "sfo"}
	left := NewRelation(MustSchema([]Attribute{
		{Name: "age", Domain: []string{"20", "30"}},
		{Name: "city", Domain: cities},
	}))
	right := NewRelation(MustSchema([]Attribute{
		{Name: "city", Domain: cities},
		{Name: "coast", Domain: []string{"east", "west", "none"}},
		{Name: "size", Domain: []string{"big", "small"}},
	}))
	mustAppend := func(r *Relation, tu Tuple) {
		t.Helper()
		if err := r.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(left, Tuple{0, 1})       // 20, nyc
	mustAppend(left, Tuple{1, 2})       // 30, sfo
	mustAppend(left, Tuple{0, Missing}) // 20, ?
	mustAppend(left, Tuple{1, 0})       // 30, chi
	mustAppend(right, Tuple{1, 0, 0})   // nyc east big
	mustAppend(right, Tuple{2, 1, 0})   // sfo west big
	// chi intentionally absent: dangling foreign key.
	return left, right
}

func TestJoinBasic(t *testing.T) {
	left, right := joinFixture(t)
	out, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Keys dropped: age + coast + size.
	if out.Schema.NumAttrs() != 3 {
		t.Fatalf("attrs = %v", out.Schema.SortedAttrNames())
	}
	if out.Len() != 4 {
		t.Fatalf("rows = %d", out.Len())
	}
	// Row 0: 20/nyc -> east, big.
	if !out.Tuples[0].Equal(Tuple{0, 0, 0}) {
		t.Errorf("row 0 = %v", out.Tuples[0])
	}
	// Row 1: 30/sfo -> west, big.
	if !out.Tuples[1].Equal(Tuple{1, 1, 0}) {
		t.Errorf("row 1 = %v", out.Tuples[1])
	}
	// Row 2: missing FK -> right side all missing.
	if !out.Tuples[2].Equal(Tuple{0, Missing, Missing}) {
		t.Errorf("row 2 = %v", out.Tuples[2])
	}
	// Row 3: dangling chi -> right side all missing.
	if !out.Tuples[3].Equal(Tuple{1, Missing, Missing}) {
		t.Errorf("row 3 = %v", out.Tuples[3])
	}
}

func TestJoinKeepKeys(t *testing.T) {
	left, right := joinFixture(t)
	out, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 0, KeepKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	// age + city (FK) + city (PK, prefixed) + coast + size: KeepKeys keeps
	// BOTH key columns, so the right PK survives under a prefixed name.
	if out.Schema.NumAttrs() != 5 {
		t.Fatalf("attrs = %v", out.Schema.SortedAttrNames())
	}
	if out.Schema.AttrIndex("city") != 1 {
		t.Errorf("city position = %d", out.Schema.AttrIndex("city"))
	}
	pk := out.Schema.AttrIndex("right.city")
	if pk != 2 {
		t.Fatalf("right.city position = %d (attrs %v)", pk, out.Schema.SortedAttrNames())
	}
	// Matched row: PK equals FK.
	if !out.Tuples[0].Equal(Tuple{0, 1, 1, 0, 0}) {
		t.Errorf("row 0 = %v", out.Tuples[0])
	}
	// Missing FK: kept PK is missing like the rest of the right side.
	if !out.Tuples[2].Equal(Tuple{0, Missing, Missing, Missing, Missing}) {
		t.Errorf("row 2 = %v", out.Tuples[2])
	}
	// Dangling FK (chi): FK survives, right side incl. PK missing.
	if !out.Tuples[3].Equal(Tuple{1, 0, Missing, Missing, Missing}) {
		t.Errorf("row 3 = %v", out.Tuples[3])
	}
}

func TestJoinNameCollision(t *testing.T) {
	shared := []string{"k1", "k2"}
	left := NewRelation(MustSchema([]Attribute{
		{Name: "id", Domain: shared},
		{Name: "x", Domain: []string{"a", "b"}},
	}))
	right := NewRelation(MustSchema([]Attribute{
		{Name: "id", Domain: shared},
		{Name: "x", Domain: []string{"c", "d"}}, // collides with left's x
	}))
	if err := left.Append(Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := right.Append(Tuple{0, 1}); err != nil {
		t.Fatal(err)
	}
	out, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 0, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	names := out.Schema.SortedAttrNames()
	if names[0] != "x" || names[1] != "right.x" {
		t.Errorf("names = %v", names)
	}
}

// A relation may already contain a prefixed name like "right.x"; one round
// of prefixing then still collides, so addAttr must loop until unique.
func TestJoinNameCollisionAlreadyPrefixed(t *testing.T) {
	shared := []string{"k1", "k2"}
	left := NewRelation(MustSchema([]Attribute{
		{Name: "id", Domain: shared},
		{Name: "x", Domain: []string{"a", "b"}},
		{Name: "right.x", Domain: []string{"p", "q"}},
	}))
	right := NewRelation(MustSchema([]Attribute{
		{Name: "id", Domain: shared},
		{Name: "x", Domain: []string{"c", "d"}},
	}))
	if err := left.Append(Tuple{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := right.Append(Tuple{0, 1}); err != nil {
		t.Fatal(err)
	}
	out, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 0, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.NumAttrs() != 3 {
		t.Fatalf("attrs = %v", out.Schema.SortedAttrNames())
	}
	want := map[string]bool{"x": true, "right.x": true, "right.right.x": true}
	for _, a := range out.Schema.Attrs {
		if !want[a.Name] {
			t.Errorf("unexpected attr %q (attrs %v)", a.Name, out.Schema.SortedAttrNames())
		}
		delete(want, a.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing attrs %v", want)
	}
}

// Custom prefixes let the SPJ layer surface collisions under relation
// names instead of the generic left/right.
func TestJoinCustomPrefixes(t *testing.T) {
	left, right := joinFixture(t)
	out, _, err := JoinTrace(left, right, JoinSpec{
		LeftKey: 1, RightKey: 0, KeepKeys: true,
		LeftPrefix: "people", RightPrefix: "cities",
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema.AttrIndex("cities.city") < 0 {
		t.Errorf("want cities.city in %v", out.Schema.SortedAttrNames())
	}
}

func TestJoinTraceProvenance(t *testing.T) {
	left, right := joinFixture(t)
	out, trace, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != len(trace) {
		t.Fatalf("len mismatch: %d rows, %d trace entries", out.Len(), len(trace))
	}
	// nyc -> right row 0, sfo -> right row 1, missing FK -> -1, dangling chi -> -1.
	want := []int{0, 1, -1, -1}
	for i, w := range want {
		if trace[i] != w {
			t.Errorf("trace[%d] = %d, want %d", i, trace[i], w)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	left, right := joinFixture(t)
	if _, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 9, RightKey: 0}); err == nil {
		t.Error("bad left key should fail")
	}
	if _, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 9}); err == nil {
		t.Error("bad right key should fail")
	}
	// Domain mismatch.
	other := NewRelation(MustSchema([]Attribute{
		{Name: "city", Domain: []string{"nyc", "sfo"}}, // different card
		{Name: "z", Domain: []string{"0"}},
	}))
	if _, _, err := JoinTrace(left, other, JoinSpec{LeftKey: 1, RightKey: 0}); err == nil {
		t.Error("key domain mismatch should fail")
	}
}

func TestJoinRejectsDuplicateOrMissingPK(t *testing.T) {
	left, right := joinFixture(t)
	if err := right.Append(Tuple{1, 2, 1}); err != nil { // second nyc
		t.Fatal(err)
	}
	if _, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 0}); err == nil {
		t.Error("duplicate primary key should fail")
	}
	_, right2 := joinFixture(t)
	if err := right2.Append(Tuple{Missing, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := JoinTrace(left, right2, JoinSpec{LeftKey: 1, RightKey: 0}); err == nil {
		t.Error("missing primary key should fail")
	}
}

// TestJoinThenLearnEndToEnd: cross-relation correlations survive the join
// and are learnable — the use case the paper sketches.
func TestJoinThenLearnEndToEnd(t *testing.T) {
	cities := []string{"c0", "c1"}
	left := NewRelation(MustSchema([]Attribute{
		{Name: "inc", Domain: []string{"lo", "hi"}},
		{Name: "city", Domain: cities},
	}))
	right := NewRelation(MustSchema([]Attribute{
		{Name: "city", Domain: cities},
		{Name: "rent", Domain: []string{"cheap", "steep"}},
	}))
	// c0 is cheap, c1 is steep; income tracks city.
	if err := right.Append(Tuple{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := right.Append(Tuple{1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := left.Append(Tuple{0, 0}); err != nil {
			t.Fatal(err)
		}
		if err := left.Append(Tuple{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 0})
	if err != nil {
		t.Fatal(err)
	}
	// inc and rent are now perfectly correlated in the joined relation.
	incIdx, rentIdx := out.Schema.AttrIndex("inc"), out.Schema.AttrIndex("rent")
	if incIdx < 0 || rentIdx < 0 {
		t.Fatalf("joined schema = %v", out.Schema.SortedAttrNames())
	}
	probe := NewTuple(out.Schema.NumAttrs())
	probe[incIdx] = 1
	probe[rentIdx] = 1
	if got := out.Support(probe); got != 0.5 {
		t.Errorf("supp(inc=hi, rent=steep) = %v, want 0.5", got)
	}
	probe[rentIdx] = 0
	if got := out.Support(probe); got != 0 {
		t.Errorf("supp(inc=hi, rent=cheap) = %v, want 0", got)
	}
}

// TestQuickJoinPreservesRowCount: a PK-FK join emits exactly one output
// row per left row, whatever the key coverage.
func TestQuickJoinPreservesRowCount(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	keys := []string{"k0", "k1", "k2"}
	for trial := 0; trial < 100; trial++ {
		left := NewRelation(MustSchema([]Attribute{
			{Name: "v", Domain: []string{"a", "b"}},
			{Name: "fk", Domain: keys},
		}))
		n := 1 + rng.Intn(30)
		for i := 0; i < n; i++ {
			fk := rng.Intn(3)
			tu := Tuple{rng.Intn(2), fk}
			if rng.Float64() < 0.2 {
				tu[1] = Missing
			}
			if err := left.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
		right := NewRelation(MustSchema([]Attribute{
			{Name: "pk", Domain: keys},
			{Name: "w", Domain: []string{"x", "y"}},
		}))
		// Cover a random subset of keys.
		for k := 0; k < 3; k++ {
			if rng.Float64() < 0.7 {
				if err := right.Append(Tuple{k, rng.Intn(2)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		out, _, err := JoinTrace(left, right, JoinSpec{LeftKey: 1, RightKey: 0})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != left.Len() {
			t.Fatalf("join emitted %d rows for %d left rows", out.Len(), left.Len())
		}
	}
}
