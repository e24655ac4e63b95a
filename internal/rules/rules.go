// Package rules builds association rules and meta-rules from mined frequent
// itemsets (Definitions 2.5 and 2.6 of the paper). An association rule is a
// pair of frequent itemsets ⟨t1, t2⟩ with t1 ≺ t2 where t1 extends t2's
// assignment by a single head attribute value; a meta-rule groups the rules
// that share a body and head attribute into one estimated conditional
// probability distribution over the head attribute's full domain.
package rules

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/itemset"
	"repro/internal/relation"
)

// Rule is one association rule with a single attribute-value assignment in
// the head (Definition 2.5).
type Rule struct {
	// Body is the shared assignment (the complete portion of t2); the head
	// attribute is Missing in Body.
	Body relation.Tuple
	// HeadAttr is the attribute assigned by the head.
	HeadAttr int
	// HeadValue is the value the head assigns to HeadAttr.
	HeadValue int
	// Confidence is supp(body+head) / supp(body), an estimate of
	// P(head | body).
	Confidence float64
	// BodySupport and FullSupport are the supports of the body itemset and
	// of the extended (body plus head) itemset.
	BodySupport, FullSupport float64
}

// BuildRules extracts every association rule with head attribute headAttr
// from the mined itemsets: for each frequent itemset assigning headAttr,
// the rule's body is that itemset minus the head assignment, and the body
// itemset must itself be frequent (guaranteed by Apriori monotonicity, but
// verified defensively). The paper computes rules irrespective of their
// confidence — there is no confidence threshold.
func BuildRules(res *itemset.Result, headAttr int) ([]Rule, error) {
	if res == nil || len(res.Itemsets) == 0 {
		return nil, fmt.Errorf("rules: empty mining result")
	}
	var out []Rule
	for _, it := range res.All() {
		v := it.Tuple[headAttr]
		if v == relation.Missing {
			continue
		}
		body := it.Tuple.Clone()
		body[headAttr] = relation.Missing
		bodySet := res.Frequent(body)
		if bodySet == nil {
			return nil, fmt.Errorf("rules: body %v of frequent itemset %v is not frequent", body, it.Tuple)
		}
		out = append(out, Rule{
			Body:        body,
			HeadAttr:    headAttr,
			HeadValue:   v,
			Confidence:  it.Support / bodySet.Support,
			BodySupport: bodySet.Support,
			FullSupport: it.Support,
		})
	}
	return out, nil
}

// MetaRule groups association rules sharing a body and head attribute into
// one estimated CPD over the head attribute's domain (Definition 2.6).
type MetaRule struct {
	// HeadAttr is the attribute whose distribution the meta-rule estimates.
	HeadAttr int
	// Body is the evidence assignment; HeadAttr is Missing in Body.
	Body relation.Tuple
	// BodySize is the number of attributes assigned by Body (0 for the
	// top-level meta-rule P(a)).
	BodySize int
	// CPD is the smoothed, normalized estimate of P(HeadAttr | Body).
	CPD dist.Dist
	// Weight is the support of the body itemset; the paper annotates each
	// meta-rule with this weight and uses it for weighted voting.
	Weight float64
	// NumRules is the number of association rules combined (head values
	// whose extension itemset was frequent).
	NumRules int
}

// Matches reports whether the meta-rule applies to tuple t: every
// attribute-value assignment in the body is also made by t.
func (m *MetaRule) Matches(t relation.Tuple) bool {
	return m.Body.SubsumesOrEqual(t)
}

// Subsumes reports meta-rule subsumption (Definition 2.7): m subsumes o
// when both share a head attribute and body(o) ≺ body(m), i.e. m's body is
// strictly more general.
func (m *MetaRule) Subsumes(o *MetaRule) bool {
	return m.HeadAttr == o.HeadAttr && m.Body.Subsumes(o.Body)
}

// BuildMetaRules combines the rules for headAttr into meta-rules. card is
// the head attribute's domain cardinality. Each meta-rule's CPD lists the
// rules' confidences; values whose extension was not frequent get zero
// mass, after which the paper's smoothing applies: any probability mass not
// accounted for is spread equally over all values, and every value is
// raised to at least dist.SmoothFloor.
func BuildMetaRules(rules []Rule, card int) ([]*MetaRule, error) {
	if card < 1 {
		return nil, fmt.Errorf("rules: head cardinality %d", card)
	}
	byBody := make(map[string]*MetaRule)
	var order []string // first-appearance order for determinism
	for _, r := range rules {
		if r.HeadValue < 0 || r.HeadValue >= card {
			return nil, fmt.Errorf("rules: head value %d out of range %d", r.HeadValue, card)
		}
		k := r.Body.Key()
		m, ok := byBody[k]
		if !ok {
			m = &MetaRule{
				HeadAttr: r.HeadAttr,
				Body:     r.Body.Clone(),
				BodySize: r.Body.NumKnown(),
				CPD:      dist.Zeros(card),
				Weight:   r.BodySupport,
			}
			byBody[k] = m
			order = append(order, k)
		}
		if m.CPD[r.HeadValue] != 0 {
			return nil, fmt.Errorf("rules: duplicate rule for body %v value %d", r.Body, r.HeadValue)
		}
		m.CPD[r.HeadValue] = r.Confidence
		m.NumRules++
	}
	out := make([]*MetaRule, 0, len(byBody))
	for _, k := range order {
		m := byBody[k]
		smoothRemainder(m.CPD)
		out = append(out, m)
	}
	return out, nil
}

// MaskWords returns the number of 64-bit words a fixed-width attribute
// bitmask needs for a schema of numAttrs attributes.
func MaskWords(numAttrs int) int { return (numAttrs + 63) / 64 }

// AppendTupleMask appends the fixed-width attribute bitmask of t — bit a
// set iff t assigns attribute a — to dst and returns it. words fixes the
// mask width so masks built for the same schema are directly comparable.
func AppendTupleMask(dst []uint64, t relation.Tuple, words int) []uint64 {
	for w := 0; w < words; w++ {
		dst = append(dst, 0)
	}
	base := len(dst) - words
	for i, v := range t {
		if v != relation.Missing {
			dst[base+i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return dst
}

// CompiledBody is a meta-rule body in match-ready form: the assigned
// attributes and values as parallel arrays plus a fixed-width attribute
// bitmask. Matching a tuple becomes a word-wise subset test and a short
// value comparison, instead of enumerating the tuple's sub-assignments.
type CompiledBody struct {
	// Attrs and Vals list the body's assignments in increasing attribute
	// order.
	Attrs []int32
	Vals  []int32
	// Mask has bit a set for every assigned attribute a, in words 64-bit
	// words (the lattice's fixed mask width).
	Mask []uint64
}

// Compile builds the match-ready form of body with masks of the given
// fixed width.
func Compile(body relation.Tuple, words int) CompiledBody {
	c := CompiledBody{Mask: AppendTupleMask(nil, body, words)}
	for a, v := range body {
		if v != relation.Missing {
			c.Attrs = append(c.Attrs, int32(a))
			c.Vals = append(c.Vals, int32(v))
		}
	}
	return c
}

// MatchedBy reports whether t makes every assignment of the compiled
// body, with the attributes tMask adds to t's known ones as wildcards:
// every body attribute must be in tMask, and agree with t wherever t is
// known. tMask must be at the same fixed width, t's own attribute bitmask
// (AppendTupleMask) for a plain match; the mask test rejects bodies
// mentioning other attributes in a few word operations, and values are
// compared only when the attribute set is a subset.
func (c *CompiledBody) MatchedBy(t relation.Tuple, tMask []uint64) bool {
	for w, m := range c.Mask {
		if m&^tMask[w] != 0 {
			return false
		}
	}
	for i, a := range c.Attrs {
		if v := t[a]; v != int(c.Vals[i]) && v != relation.Missing {
			return false
		}
	}
	return true
}

// smoothRemainder implements the paper's CPD smoothing: the confidences of
// the discovered rules sum to at most 1 (values pruned by the support
// threshold contribute nothing); the remaining mass is distributed equally
// among all values, and every value is raised to at least dist.SmoothFloor
// before a final renormalization.
func smoothRemainder(cpd dist.Dist) {
	sum := cpd.Sum()
	if sum > 1 {
		// Confidences can exceed 1 in aggregate only through floating-point
		// slop; normalize it away.
		cpd.Normalize()
		sum = 1
	}
	leftover := (1 - sum) / float64(len(cpd))
	for i := range cpd {
		cpd[i] += leftover
	}
	cpd.Smooth(dist.SmoothFloor)
}
