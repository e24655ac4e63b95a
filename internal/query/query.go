// Package query implements the engine-native probabilistic query
// subsystem: a compiled representation of conjunctive predicates
// (equality and domain-order comparisons) under the operators count,
// exists, topk, and groupby — each with an optional probability
// threshold — evaluated through a plan/executor pipeline on top of
// derive.Engine.
//
// Evaluation is two-staged. The planner (planner.go) compiles one
// evaluation's Plan against a concrete engine and relation: it orders
// predicate evaluation by estimated selectivity (satisfying-set
// cardinality refined by marginal mass from the engine's shared CPD
// cache) and classifies every tuple into a resolution tier — refuted,
// certain, single-missing, bounded, or derive — attaching a sound
// dissociation-style [lo, hi] probability interval (derive.Engine's
// BoundCPD) to each multi-missing tuple. The executor (executor.go)
// consumes the tiers in increasing cost order, deciding as much as the
// bounds allow and deriving only the remainder.
//
// The pipeline's contract is exactness with pruning: every answer is
// bit-identical to deriving the full probabilistic database and
// evaluating naively, yet selective queries derive only a fraction of
// the tuples. Pruning comes from four sound sources, in increasing
// cost:
//
//   - Evidence: a tuple whose known values refute the predicates has
//     satisfaction probability exactly 0 — no inference at all.
//     Structural analysis extends this to open attributes whose compiled
//     satisfying set is empty. Complete tuples are likewise decided for
//     free in either direction. (An *incomplete* tuple that every
//     completion satisfies is not pruned to 1: its block's probability
//     mass need not sum to exactly 1.0 in floats, so pinning it would
//     break bit-identity — it is resolved like any open tuple instead.)
//   - Votes: a single-missing tuple's completion block is one voted CPD,
//     read through derive.Engine.ResolveBlock from the engine's one block
//     cache — the block, from the cache slot, full derivation would emit
//     — so its satisfaction probability is exact for the cost of one vote
//     and the tuple never needs a dissociation interval or a chain.
//   - Dissociation intervals: a multi-missing tuple's satisfying mass is
//     bracketed by combining per-attribute conditional-CPD envelopes
//     with Frechet bounds (derive.Engine.BoundCPD) — sound for the very
//     chain estimate derivation would produce. A thresholded count
//     counts the tuple in when Lo clears the threshold and out when Hi
//     stays below; exists folds the Lo sides into a derivation-free
//     lower bound that can cross its threshold without any sampling;
//     topk skips every candidate whose Hi cannot reach the held rank-k
//     probability. One-sided decisions imply the oracle's comparison, so
//     bit-identity survives.
//   - Early termination: exists stops at the first sure witness (or once
//     the accumulated probability crosses the threshold, which it can
//     never fall back below), and topk stops once the best remaining
//     upper bound cannot displace rank k.
//
// Expected counts, unthresholded exists, and groupby need every open
// tuple's exact mass, so they scan fully — the deliberate limit of
// interval pruning. Select-project-join queries (spj.go) fold their join
// chain with per-row lineage and evaluate through the same pipeline:
// safe plans and linear operators answer exactly, and unsafe exists
// plans report the dissociated mass with a sound [lo, hi] interval.
package query

import (
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Op is a query operator.
type Op int

const (
	// Count evaluates the expected number of satisfying tuples — or,
	// with a probability threshold, the number of tuples whose
	// satisfaction probability reaches it.
	Count Op = iota
	// Exists evaluates the probability that at least one tuple
	// satisfies the predicates (blocks are independent), with early
	// termination once the answer cannot change.
	Exists
	// TopK returns the k most probable satisfying completions.
	TopK
	// GroupBy returns the expected histogram of one attribute over the
	// satisfying tuples.
	GroupBy
)

// String returns the operator's wire name.
func (o Op) String() string {
	switch o {
	case Count:
		return "count"
	case Exists:
		return "exists"
	case TopK:
		return "topk"
	case GroupBy:
		return "groupby"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp converts a wire name into an Op.
func ParseOp(s string) (Op, error) {
	switch s {
	case "count":
		return Count, nil
	case "exists":
		return Exists, nil
	case "topk":
		return TopK, nil
	case "groupby":
		return GroupBy, nil
	}
	return 0, fmt.Errorf("query: unknown operation %q", s)
}

// Cmp is a predicate comparison. Ordered comparisons compare value codes,
// i.e. domain positions: they are meaningful for attributes whose domain
// lists values in a semantic order (discretized numeric buckets do).
type Cmp int

const (
	Eq Cmp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String returns the comparison's surface syntax.
func (c Cmp) String() string {
	switch c {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	default:
		return fmt.Sprintf("Cmp(%d)", int(c))
	}
}

// holds reports whether value code v satisfies the comparison against
// the predicate code w.
func (c Cmp) holds(v, w int) bool {
	switch c {
	case Eq:
		return v == w
	case Ne:
		return v != w
	case Lt:
		return v < w
	case Le:
		return v <= w
	case Gt:
		return v > w
	case Ge:
		return v >= w
	default:
		return false
	}
}

// Pred is one predicate: Attr Cmp Value, with Value a domain code of
// Attr. Several predicates may constrain the same attribute (a range);
// a tuple satisfies the query when every predicate holds.
type Pred struct {
	Attr  int
	Cmp   Cmp
	Value int
}

// Spec is the uncompiled form of a query, as CLI flags and HTTP query
// parameters express it.
type Spec struct {
	// Op is the operator.
	Op Op
	// Preds are programmatic predicates; predicates parsed from Where
	// are appended to them.
	Preds []Pred
	// Where is the textual conjunction, e.g. "age=30,inc>=50K" (see
	// ParseWhere). Empty means Preds alone.
	Where string
	// GroupBy names the histogram attribute (GroupBy op only).
	GroupBy string
	// K caps TopK results; <= 0 keeps every satisfying row.
	K int
	// MinProb is the optional probability threshold in [0, 1]: Count
	// counts tuples reaching it, Exists answers whether the existence
	// probability reaches it, TopK drops rows below it. 0 disables it.
	MinProb float64
	// Analyze enables explain-analyze timing: the executor measures
	// per-tier resolution durations and attaches them to
	// Result.Plan.Timing. Timing never changes answers; it only adds
	// clock reads around resolution units.
	Analyze bool
}

// valueSet is the compiled satisfying set of one constrained attribute:
// the intersection of every predicate on it.
type valueSet struct {
	ok []bool // ok[v]: value code v satisfies all predicates on the attribute
	n  int    // number of satisfying values
}

func (s *valueSet) empty() bool { return s.n == 0 }
func (s *valueSet) full() bool  { return s.n == len(s.ok) }

// contains reports whether value code v satisfies the set.
func (s *valueSet) contains(v int) bool { return s.ok[v] }

// Query is a compiled query over one schema: per-attribute satisfying
// sets plus the operator and its parameters. Compile validates
// everything up front, so evaluation never fails on query shape.
type Query struct {
	op     Op
	schema *relation.Schema
	// sat[a] is the satisfying set of attribute a, nil when a is
	// unconstrained.
	sat []*valueSet
	// constrained lists the constrained attributes in increasing order.
	constrained []int
	groupAttr   int // -1 unless op == GroupBy
	k           int
	minProb     float64
	preds       []Pred // the original predicates, for String
	// boundsOff disables dissociation-interval planning regardless of the
	// operator. The projected (distinct-answer) SPJ mode sets it: every
	// non-refuted row needs its exact per-completion masses, so intervals
	// would be computed and then ignored.
	boundsOff bool
	// analyze requests explain-analyze timing (Spec.Analyze).
	analyze bool
}

// Compile validates spec against the schema and compiles it. Count,
// Exists, and TopK require at least one predicate; GroupBy requires a
// group attribute and accepts zero predicates (the unfiltered
// histogram).
func Compile(s *relation.Schema, spec Spec) (*Query, error) {
	if s == nil {
		return nil, fmt.Errorf("query: nil schema")
	}
	q := &Query{
		op:        spec.Op,
		schema:    s,
		sat:       make([]*valueSet, s.NumAttrs()),
		groupAttr: -1,
		k:         spec.K,
		minProb:   spec.MinProb,
		analyze:   spec.Analyze,
	}
	switch spec.Op {
	case Count, Exists, TopK:
	case GroupBy:
		if spec.GroupBy == "" {
			return nil, fmt.Errorf("query: groupby requires a group attribute")
		}
	default:
		return nil, fmt.Errorf("query: unknown operation %v", spec.Op)
	}
	if spec.GroupBy != "" {
		if spec.Op != GroupBy {
			return nil, fmt.Errorf("query: group attribute is only valid for groupby")
		}
		a := s.AttrIndex(spec.GroupBy)
		if a < 0 {
			return nil, fmt.Errorf("query: unknown attribute %q", spec.GroupBy)
		}
		q.groupAttr = a
	}
	if !(spec.MinProb >= 0 && spec.MinProb <= 1) { // also rejects NaN
		return nil, fmt.Errorf("query: probability threshold %v outside [0, 1]", spec.MinProb)
	}
	if spec.Op == GroupBy && (spec.K != 0 || spec.MinProb != 0) {
		return nil, fmt.Errorf("query: k and minprob are not valid for groupby")
	}
	if spec.Op != TopK && spec.K != 0 {
		return nil, fmt.Errorf("query: k is only valid for topk")
	}
	preds := append([]Pred(nil), spec.Preds...)
	if spec.Where != "" {
		parsed, err := ParseWhere(s, spec.Where)
		if err != nil {
			return nil, err
		}
		preds = append(preds, parsed...)
	}
	if len(preds) == 0 && spec.Op != GroupBy {
		return nil, fmt.Errorf("query: %v requires at least one predicate", spec.Op)
	}
	for _, p := range preds {
		if p.Attr < 0 || p.Attr >= s.NumAttrs() {
			return nil, fmt.Errorf("query: predicate attribute %d out of range", p.Attr)
		}
		card := s.Attrs[p.Attr].Card()
		if p.Value < 0 || p.Value >= card {
			return nil, fmt.Errorf("query: predicate value %d out of range for %q",
				p.Value, s.Attrs[p.Attr].Name)
		}
		switch p.Cmp {
		case Eq, Ne, Lt, Le, Gt, Ge:
		default:
			return nil, fmt.Errorf("query: unknown comparison %v", p.Cmp)
		}
		set := q.sat[p.Attr]
		if set == nil {
			set = &valueSet{ok: make([]bool, card), n: card}
			for v := range set.ok {
				set.ok[v] = true
			}
			q.sat[p.Attr] = set
			q.constrained = append(q.constrained, p.Attr)
		}
		for v := range set.ok {
			if set.ok[v] && !p.Cmp.holds(v, p.Value) {
				set.ok[v] = false
				set.n--
			}
		}
	}
	// constrained was appended in predicate order; restore increasing
	// attribute order for deterministic classification.
	for i := 1; i < len(q.constrained); i++ {
		for j := i; j > 0 && q.constrained[j] < q.constrained[j-1]; j-- {
			q.constrained[j], q.constrained[j-1] = q.constrained[j-1], q.constrained[j]
		}
	}
	q.preds = preds
	return q, nil
}

// Op returns the compiled operator.
func (q *Query) Op() Op { return q.op }

// Schema returns the schema the query was compiled against.
func (q *Query) Schema() *relation.Schema { return q.schema }

// K returns the TopK result cap (<= 0 means unbounded).
func (q *Query) K() int { return q.k }

// MinProb returns the probability threshold (0 when unset).
func (q *Query) MinProb() float64 { return q.minProb }

// GroupAttr returns the histogram attribute, or -1 for non-GroupBy
// queries.
func (q *Query) GroupAttr() int { return q.groupAttr }

// String renders the query in its surface syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString(q.op.String())
	if len(q.preds) > 0 {
		b.WriteString(" where ")
		for i, p := range q.preds {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s%s%s", q.schema.Attrs[p.Attr].Name, p.Cmp,
				q.schema.Attrs[p.Attr].Domain[p.Value])
		}
	}
	if q.groupAttr >= 0 {
		fmt.Fprintf(&b, " by %s", q.schema.Attrs[q.groupAttr].Name)
	}
	if q.op == TopK && q.k > 0 {
		fmt.Fprintf(&b, " k=%d", q.k)
	}
	if q.minProb > 0 {
		fmt.Fprintf(&b, " minprob=%g", q.minProb)
	}
	return b.String()
}

// refutes reports whether evidence and structure alone refute t: a
// known value fails a predicate, or a missing constrained attribute has
// an empty satisfying set, so t satisfies the query with probability 0.
func (q *Query) refutes(t relation.Tuple) bool {
	for _, a := range q.constrained {
		set := q.sat[a]
		if t[a] == relation.Missing {
			if set.empty() {
				return true
			}
		} else if !set.contains(t[a]) {
			return true
		}
	}
	return false
}
