// Package relation implements the single-relation data model of the paper:
// discrete finite-valued attributes, complete tuples (points), incomplete
// tuples with missing values, the match/support/subsumption relations
// (Definitions 2.1-2.4), and CSV import/export.
//
// Values are stored as small integer codes indexing into each attribute's
// domain; Missing (-1) marks an unknown value (rendered "?").
package relation

import (
	"fmt"
	"strings"
)

// Missing is the value code of a missing ("?") attribute value.
const Missing = -1

// Attribute describes one discrete finite-valued column of a relation.
type Attribute struct {
	// Name is the column name, e.g. "age".
	Name string
	// Domain lists the value labels; a value code v names Domain[v].
	Domain []string
}

// Card returns the attribute's cardinality (number of domain values).
func (a Attribute) Card() int { return len(a.Domain) }

// Schema is the ordered list of attributes of a relation.
type Schema struct {
	Attrs []Attribute

	index map[string]int // attribute name -> position
}

// NewSchema builds a schema from attributes. Attribute names must be unique
// and non-empty, and every domain must have at least one value.
func NewSchema(attrs []Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema must have at least one attribute")
	}
	s := &Schema{
		Attrs: append([]Attribute(nil), attrs...),
		index: make(map[string]int, len(attrs)),
	}
	for i, a := range s.Attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if len(a.Domain) == 0 {
			return nil, fmt.Errorf("relation: attribute %q has empty domain", a.Name)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q", a.Name)
		}
		seen := make(map[string]bool, len(a.Domain))
		for _, v := range a.Domain {
			if seen[v] {
				return nil, fmt.Errorf("relation: attribute %q has duplicate domain value %q", a.Name, v)
			}
			seen[v] = true
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(attrs []Attribute) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of attributes.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Cards returns the cardinality of every attribute, in schema order.
func (s *Schema) Cards() []int {
	cards := make([]int, len(s.Attrs))
	for i, a := range s.Attrs {
		cards[i] = a.Card()
	}
	return cards
}

// DomainSize returns the size of the Cartesian product of all domains
// (the "dom. size" column of Table I in the paper).
func (s *Schema) DomainSize() int {
	n := 1
	for _, a := range s.Attrs {
		n *= a.Card()
	}
	return n
}

// Diff compares s with another schema and returns "" when they are
// attribute-for-attribute identical (same names, same domains, in the same
// order — the condition under which value codes mean the same thing in
// both), or a one-line description of the first difference. Domains are
// positional because codes index them: two schemas listing the same labels
// in different orders are NOT interchangeable.
func (s *Schema) Diff(o *Schema) string {
	if o == nil {
		return "second schema is nil"
	}
	if len(s.Attrs) != len(o.Attrs) {
		return fmt.Sprintf("%d attributes vs %d", len(s.Attrs), len(o.Attrs))
	}
	for i, a := range s.Attrs {
		b := o.Attrs[i]
		if a.Name != b.Name {
			return fmt.Sprintf("attribute %d is %q vs %q", i, a.Name, b.Name)
		}
		if len(a.Domain) != len(b.Domain) {
			return fmt.Sprintf("attribute %q has %d domain values vs %d",
				a.Name, len(a.Domain), len(b.Domain))
		}
		for v := range a.Domain {
			if a.Domain[v] != b.Domain[v] {
				return fmt.Sprintf("attribute %q domain value %d is %q vs %q",
					a.Name, v, a.Domain[v], b.Domain[v])
			}
		}
	}
	return ""
}

// Equal reports whether s and o are interchangeable (Diff returns "").
func (s *Schema) Equal(o *Schema) bool { return s.Diff(o) == "" }

// ValueCode returns the code of label within attribute attr, or an error.
func (s *Schema) ValueCode(attr int, label string) (int, error) {
	if attr < 0 || attr >= len(s.Attrs) {
		return 0, fmt.Errorf("relation: attribute index %d out of range", attr)
	}
	for v, l := range s.Attrs[attr].Domain {
		if l == label {
			return v, nil
		}
	}
	return 0, fmt.Errorf("relation: %q is not in the domain of %q", label, s.Attrs[attr].Name)
}

// Tuple is an assignment of values to the attributes of a schema.
// t[i] is the value code of attribute i, or Missing. A tuple with no
// Missing entries is a complete tuple ("point", Definition 2.2); otherwise
// it is an incomplete tuple (Definition 2.1).
type Tuple []int

// NewTuple returns a fully missing tuple over n attributes.
func NewTuple(n int) Tuple {
	t := make(Tuple, n)
	for i := range t {
		t[i] = Missing
	}
	return t
}

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// IsComplete reports whether t assigns a value to every attribute.
func (t Tuple) IsComplete() bool {
	for _, v := range t {
		if v == Missing {
			return false
		}
	}
	return true
}

// CompleteAttrs returns the indices of attributes with known values
// (the "complete portion" of t), in increasing order.
func (t Tuple) CompleteAttrs() []int {
	var out []int
	for i, v := range t {
		if v != Missing {
			out = append(out, i)
		}
	}
	return out
}

// MissingAttrs returns the indices of attributes with missing values,
// in increasing order.
func (t Tuple) MissingAttrs() []int {
	var out []int
	for i, v := range t {
		if v == Missing {
			out = append(out, i)
		}
	}
	return out
}

// NumMissing returns the number of missing values in t.
func (t Tuple) NumMissing() int {
	n := 0
	for _, v := range t {
		if v == Missing {
			n++
		}
	}
	return n
}

// NumKnown returns the number of known values in t.
func (t Tuple) NumKnown() int { return len(t) - t.NumMissing() }

// Matches reports whether point p agrees with t on every attribute in t's
// complete portion (Definition 2.3: "p matches t"). p is typically complete
// but only the attributes known in t are compared.
func (t Tuple) Matches(p Tuple) bool {
	for i, v := range t {
		if v != Missing && p[i] != v {
			return false
		}
	}
	return true
}

// Subsumes reports whether t subsumes u (u ≺ t, Definition 2.4): the
// complete portion of t is a proper subset of the complete portion of u,
// and u assigns the same values as t on t's complete portion. A subsumer is
// strictly more general: it fixes fewer attributes.
func (t Tuple) Subsumes(u Tuple) bool {
	proper := false
	for i, v := range t {
		switch {
		case v != Missing && u[i] != v:
			return false // disagreement, or u missing where t is known
		case v == Missing && u[i] != Missing:
			proper = true
		}
	}
	return proper
}

// SubsumesOrEqual reports t.Subsumes(u) or t and u making identical
// assignments.
func (t Tuple) SubsumesOrEqual(u Tuple) bool {
	for i, v := range t {
		if v != Missing && u[i] != v {
			return false
		}
	}
	return true
}

// Equal reports whether t and u make exactly the same assignments.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Key returns a compact string key identifying t's assignments, usable as a
// map key. Attributes appear in increasing order; missing attributes are
// skipped, so the key identifies the partial assignment (itemset) itself.
func (t Tuple) Key() string {
	return string(t.AppendKey(nil))
}

// AppendKey appends t's key bytes to b and returns the extended slice.
// Hot loops can reuse a buffer and index maps with string(buf), which the
// compiler compiles without allocation.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, v := range t {
		if v == Missing {
			continue
		}
		b = appendUvarint(b, uint64(i))
		b = appendUvarint(b, uint64(v))
	}
	return b
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Format renders t using the schema's labels, e.g.
// "⟨age=20, edu=HS, inc=?, nw=?⟩".
func (t Tuple) Format(s *Schema) string {
	parts := make([]string, len(t))
	for i, v := range t {
		label := "?"
		if v != Missing {
			label = s.Attrs[i].Domain[v]
		}
		parts[i] = s.Attrs[i].Name + "=" + label
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}

// Relation is a collection of tuples over a schema. Tuples may be complete
// (points) or incomplete.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation over the schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Append adds a tuple after validating its values against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.NumAttrs() {
		return fmt.Errorf("relation: tuple has %d values, schema has %d attributes",
			len(t), r.Schema.NumAttrs())
	}
	for i, v := range t {
		if v != Missing && (v < 0 || v >= r.Schema.Attrs[i].Card()) {
			return fmt.Errorf("relation: value %d out of range for attribute %q",
				v, r.Schema.Attrs[i].Name)
		}
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// SourceRelation returns r, so a *Relation is a source that the
// derivation engine streams and the query evaluator scans
// (derive.Source).
func (r *Relation) SourceRelation() *Relation { return r }

// Split partitions r into its complete part Rc (points) and incomplete part
// Ri, preserving tuple order within each part.
func (r *Relation) Split() (rc, ri *Relation) {
	rc = NewRelation(r.Schema)
	ri = NewRelation(r.Schema)
	for _, t := range r.Tuples {
		if t.IsComplete() {
			rc.Tuples = append(rc.Tuples, t)
		} else {
			ri.Tuples = append(ri.Tuples, t)
		}
	}
	return rc, ri
}

// Support returns the fraction of tuples in r that match t
// (Definition 2.3). r is normally the complete part Rc.
func (r *Relation) Support(t Tuple) float64 {
	if len(r.Tuples) == 0 {
		return 0
	}
	n := 0
	for _, p := range r.Tuples {
		if t.Matches(p) {
			n++
		}
	}
	return float64(n) / float64(len(r.Tuples))
}

// CountMatches returns the number of tuples in r matching t.
func (r *Relation) CountMatches(t Tuple) int {
	n := 0
	for _, p := range r.Tuples {
		if t.Matches(p) {
			n++
		}
	}
	return n
}

// DistinctIncomplete returns the distinct incomplete tuples of r (by
// assignment identity), in first-appearance order, along with the number of
// occurrences of each. Workload-driven sampling (Section V-B) operates on
// distinct incomplete tuples.
func (r *Relation) DistinctIncomplete() ([]Tuple, []int) {
	var (
		out    []Tuple
		counts []int
		seen   = make(map[string]int)
	)
	for _, t := range r.Tuples {
		if t.IsComplete() {
			continue
		}
		k := t.Key()
		if i, ok := seen[k]; ok {
			counts[i]++
			continue
		}
		seen[k] = len(out)
		out = append(out, t)
		counts = append(counts, 1)
	}
	return out, counts
}

// SortedAttrNames returns the attribute names in schema order (handy for
// stable output).
func (s *Schema) SortedAttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// String summarizes the schema.
func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = fmt.Sprintf("%s(%d)", a.Name, a.Card())
	}
	return strings.Join(parts, ", ")
}
