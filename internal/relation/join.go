package relation

import (
	"fmt"
)

// The paper assumes a single relation but notes (Section I-B) that
// multi-relation databases can be handled by "computing a primary-foreign
// key join when appropriate" and learning over the joined relation. This
// file implements that join; the intensional SPJ query layer
// (internal/query) runs it at query time through JoinTrace, which also
// reports each output row's right-side provenance.

// JoinSpec describes a primary-foreign key equi-join between two relations.
type JoinSpec struct {
	// LeftKey is the foreign-key attribute index in the left relation.
	LeftKey int
	// RightKey is the primary-key attribute index in the right relation;
	// its values must be unique among the right relation's tuples.
	RightKey int
	// KeepKeys retains the join attributes in the output — both the left
	// foreign key and the right primary key columns; by default they are
	// dropped (keys are identifiers, not statistical evidence — mining
	// them would produce one spurious "rule" per entity). A kept right
	// primary key is Missing on rows whose foreign key is missing or
	// dangling, like every other right-side column.
	KeepKeys bool
	// LeftPrefix and RightPrefix replace the default "left"/"right"
	// prefixes used to disambiguate colliding attribute names; the SPJ
	// layer passes relation names here so a collision surfaces as e.g.
	// "cities.city" instead of "right.city".
	LeftPrefix, RightPrefix string
}

// JoinTrace computes the PK-FK join of left and right, with provenance.
// Key attributes must have identical domains (they refer to the same
// entities). Left tuples with a missing foreign key, or with a foreign
// key that has no right-side match, join to an all-missing right side —
// the derived columns become inference targets rather than being
// dropped, mirroring how incomplete data is handled everywhere else in
// the pipeline. The second result is the provenance: its element i is
// the right-relation tuple index that output row i joined with, or -1
// when the row's foreign key was missing or dangling. The output has
// exactly one row per left row, in left order, so the left provenance of
// row i is i itself.
func JoinTrace(left, right *Relation, spec JoinSpec) (*Relation, []int, error) {
	if spec.LeftKey < 0 || spec.LeftKey >= left.Schema.NumAttrs() {
		return nil, nil, fmt.Errorf("relation: left key %d out of range", spec.LeftKey)
	}
	if spec.RightKey < 0 || spec.RightKey >= right.Schema.NumAttrs() {
		return nil, nil, fmt.Errorf("relation: right key %d out of range", spec.RightKey)
	}
	lk, rk := left.Schema.Attrs[spec.LeftKey], right.Schema.Attrs[spec.RightKey]
	if lk.Card() != rk.Card() {
		return nil, nil, fmt.Errorf("relation: key domains differ (%d vs %d values)", lk.Card(), rk.Card())
	}
	for i := range lk.Domain {
		if lk.Domain[i] != rk.Domain[i] {
			return nil, nil, fmt.Errorf("relation: key domains differ at value %d (%q vs %q)",
				i, lk.Domain[i], rk.Domain[i])
		}
	}

	// Index the right relation by key; enforce primary-key uniqueness.
	index := make(map[int]int, right.Len())
	for j, t := range right.Tuples {
		k := t[spec.RightKey]
		if k == Missing {
			return nil, nil, fmt.Errorf("relation: right tuple %v has missing primary key", t)
		}
		if _, dup := index[k]; dup {
			return nil, nil, fmt.Errorf("relation: duplicate primary key %q",
				rk.Domain[k])
		}
		index[k] = j
	}

	leftPrefix, rightPrefix := spec.LeftPrefix, spec.RightPrefix
	if leftPrefix == "" {
		leftPrefix = "left"
	}
	if rightPrefix == "" {
		rightPrefix = "right"
	}

	// Output schema: left attributes (optionally minus the FK), then right
	// attributes (optionally minus the PK). Names are prefixed on
	// collision, repeatedly until unique — a relation may itself contain a
	// prefixed name like "right.x", so one prefixing pass is not enough.
	var attrs []Attribute
	var leftMap, rightMap []int // output position -> source attr, or -1
	names := make(map[string]bool)
	addAttr := func(a Attribute, prefix string) {
		name := a.Name
		for names[name] {
			name = prefix + "." + name
		}
		names[name] = true
		attrs = append(attrs, Attribute{Name: name, Domain: a.Domain})
	}
	for i, a := range left.Schema.Attrs {
		if i == spec.LeftKey && !spec.KeepKeys {
			continue
		}
		leftMap = append(leftMap, i)
		addAttr(a, leftPrefix)
	}
	for i, a := range right.Schema.Attrs {
		if i == spec.RightKey && !spec.KeepKeys {
			continue // the PK duplicates the FK unless the caller keeps keys
		}
		rightMap = append(rightMap, i)
		addAttr(a, rightPrefix)
	}
	schema, err := NewSchema(attrs)
	if err != nil {
		return nil, nil, err
	}

	out := NewRelation(schema)
	trace := make([]int, 0, left.Len())
	for _, lt := range left.Tuples {
		tu := NewTuple(schema.NumAttrs())
		pos := 0
		for _, src := range leftMap {
			tu[pos] = lt[src]
			pos++
		}
		var rt Tuple
		rj := -1
		if k := lt[spec.LeftKey]; k != Missing {
			if j, ok := index[k]; ok {
				rt, rj = right.Tuples[j], j
			}
			// dangling: right side stays missing
		}
		for _, src := range rightMap {
			if rt != nil {
				tu[pos] = rt[src]
			}
			pos++
		}
		if err := out.Append(tu); err != nil {
			return nil, nil, err
		}
		trace = append(trace, rj)
	}
	return out, trace, nil
}
