// Package core implements the paper's primary contribution: the Meta-Rule
// Semi-Lattice (MRSL) inference ensemble. An MRSL organizes all meta-rules
// with a common head attribute into a partial order under meta-rule
// subsumption (Definitions 2.7-2.9); the MRSL model holds one semi-lattice
// per attribute and is learned from the complete portion of a relation with
// Algorithm 1 (mine frequent itemsets, derive association rules, group them
// into meta-rules, order by subsumption).
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/itemset"
	"repro/internal/relation"
	"repro/internal/rules"
)

// MRSL is the meta-rule semi-lattice of a single head attribute
// (Definition 2.8): all meta-rules predicting that attribute, ordered by
// subsumption. Rules[0] is always the top-level meta-rule with empty body
// (the marginal P(a)), which subsumes every other meta-rule.
type MRSL struct {
	// Attr is the head attribute index within the schema.
	Attr int
	// Card is the head attribute's cardinality.
	Card int
	// Rules holds the meta-rules sorted by (body size, body key).
	Rules []*rules.MetaRule

	// covers[i] lists indices of the immediate subsumers (Hasse-diagram
	// parents) of Rules[i]; computed by ComputeSubsumption.
	covers [][]int
	// children[i] lists the rules Rules[i] immediately covers — the
	// inverse of covers — the downward edges the lattice-native matcher
	// traverses.
	children [][]int32
	// compiled[i] is Rules[i].Body in match-ready form (attribute bitmask
	// plus value array), built once at newMRSL time.
	compiled []rules.CompiledBody
	// maskWords is the fixed attribute-bitmask width shared by all
	// compiled bodies of this lattice.
	maskWords int
	// byBody maps a body assignment key to the rule index.
	byBody map[string]int
}

// newMRSL indexes a sorted meta-rule list into a semi-lattice.
func newMRSL(attr, card int, metas []*rules.MetaRule) (*MRSL, error) {
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].BodySize != metas[j].BodySize {
			return metas[i].BodySize < metas[j].BodySize
		}
		return metas[i].Body.Key() < metas[j].Body.Key()
	})
	l := &MRSL{
		Attr:   attr,
		Card:   card,
		Rules:  metas,
		byBody: make(map[string]int, len(metas)),
	}
	for i, m := range metas {
		k := m.Body.Key()
		if _, dup := l.byBody[k]; dup {
			return nil, fmt.Errorf("core: duplicate meta-rule body %v for attribute %d", m.Body, attr)
		}
		l.byBody[k] = i
	}
	if len(metas) == 0 || metas[0].BodySize != 0 {
		return nil, fmt.Errorf("core: attribute %d lattice lacks a top-level meta-rule", attr)
	}
	l.computeSubsumption()
	l.compile()
	return l, nil
}

// compile builds the lattice-native matching structures: each body in
// match-ready bitmask form, and the downward (child) edges of the Hasse
// diagram, which PrepareFamily traverses top-down.
func (l *MRSL) compile() {
	numAttrs := len(l.Rules[0].Body)
	l.maskWords = rules.MaskWords(numAttrs)
	l.compiled = make([]rules.CompiledBody, len(l.Rules))
	l.children = make([][]int32, len(l.Rules))
	for i, m := range l.Rules {
		l.compiled[i] = rules.Compile(m.Body, l.maskWords)
		for _, p := range l.covers[i] {
			l.children[p] = append(l.children[p], int32(i))
		}
	}
}

// computeSubsumption builds the Hasse diagram of the subsumption order:
// covers[i] holds the most specific rules that strictly subsume Rules[i].
// It corresponds to Algorithm 1's ComputeSubsumption step.
func (l *MRSL) computeSubsumption() {
	l.covers = make([][]int, len(l.Rules))
	for i, m := range l.Rules {
		if m.BodySize == 0 {
			continue
		}
		subsumers := l.properSubsetRules(m.Body)
		// Keep the maximal subsumers: those whose body is not a proper
		// subset of another subsumer's body.
		for _, si := range subsumers {
			maximal := true
			for _, sj := range subsumers {
				if si != sj && l.Rules[si].Body.Subsumes(l.Rules[sj].Body) {
					maximal = false
					break
				}
			}
			if maximal {
				l.covers[i] = append(l.covers[i], si)
			}
		}
		sort.Ints(l.covers[i])
	}
}

// properSubsetRules returns indices of rules whose body is a proper subset
// of the given body, found by enumerating body's sub-assignments.
func (l *MRSL) properSubsetRules(body relation.Tuple) []int {
	attrs := body.CompleteAttrs()
	n := len(attrs)
	var out []int
	sub := relation.NewTuple(len(body))
	var buf []byte
	for mask := 0; mask < (1 << n); mask++ {
		if mask == (1<<n)-1 {
			continue // the full body itself
		}
		for i := range sub {
			sub[i] = relation.Missing
		}
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				sub[attrs[b]] = body[attrs[b]]
			}
		}
		buf = sub.AppendKey(buf[:0])
		if idx, ok := l.byBody[string(buf)]; ok {
			out = append(out, idx)
		}
	}
	return out
}

// Covers returns the indices of the immediate subsumers of rule i in the
// Hasse diagram (empty for the top-level rule).
func (l *MRSL) Covers(i int) []int { return l.covers[i] }

// Lookup returns the rule with exactly the given body, or nil.
func (l *MRSL) Lookup(body relation.Tuple) *rules.MetaRule {
	if i, ok := l.byBody[body.Key()]; ok {
		return l.Rules[i]
	}
	return nil
}

// VoterChoice selects which matching meta-rules vote during inference
// (Section IV).
type VoterChoice int

const (
	// AllVoters uses every matching meta-rule.
	AllVoters VoterChoice = iota
	// BestVoters uses only the most specific matching meta-rules: matches
	// that do not subsume any other match.
	BestVoters
)

// String returns the paper's name for the choice ("all" / "best").
func (v VoterChoice) String() string {
	switch v {
	case AllVoters:
		return "all"
	case BestVoters:
		return "best"
	default:
		return fmt.Sprintf("VoterChoice(%d)", int(v))
	}
}

// ParseVoterChoice converts "all"/"best" into a VoterChoice.
func ParseVoterChoice(s string) (VoterChoice, error) {
	switch s {
	case "all":
		return AllVoters, nil
	case "best":
		return BestVoters, nil
	}
	return 0, fmt.Errorf("core: unknown voter choice %q", s)
}

// MatchScratch holds the reusable state of lattice-native matching: the
// traversal's marks and the family PrepareFamily last matched, which
// AppendContext answers. The zero value is ready to use; reusing one
// scratch across calls makes PrepareFamily, AppendContext and
// AppendMatches allocation-free in steady state. A scratch is not safe
// for concurrent use, but may be shared across lattices.
type MatchScratch struct {
	l     *MRSL // the lattice of the prepared family
	tmask []uint64
	// visited and cand are bitsets over l's rules: rule r was tested, and
	// is a candidate, in the last traversal.
	visited, cand []uint64
	stack         []int32
	// cands lists the candidates' rule indices in ascending order.
	cands []int32
	// vals[c*len(free)+f] is candidate c's value on free attribute f, or
	// relation.Missing where its body leaves f open.
	vals []int32
	// rows holds bitsets over the candidates, words each. Row 0 is every
	// candidate; free attribute f's rows start at row base[f], which
	// holds the candidates leaving f open, followed by one row per value
	// v < nvals[f] holding those equal to v there.
	words       int
	rows        []uint64
	base, nvals []int
	// matched is AppendContext's bitset of the context's matches, over
	// the candidates; covered marks the rules some match lists as a
	// cover.
	matched, covered []uint64
}

// resetBits returns b resized to a zeroed bitset of n bits.
func resetBits(b []uint64, n int) []uint64 {
	words := (n + 63) / 64
	if cap(b) < words {
		return make([]uint64, words)
	}
	b = b[:words]
	clear(b)
	return b
}

func hasBit(b []uint64, i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

func setBit(b []uint64, i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// Match returns the meta-rules applicable to tuple t under the given voter
// choice: rules whose body assignments are all made by t (Algorithm 2's
// GetMatchingMetaRules). The head attribute's own value in t is ignored.
// The top-level rule always matches, so the result is never empty.
//
// Match allocates its result and a fresh scratch; hot paths should use
// AppendMatches with a reused MatchScratch instead.
func (l *MRSL) Match(t relation.Tuple, choice VoterChoice) []*rules.MetaRule {
	var s MatchScratch
	idxs := l.AppendMatches(nil, t, choice, &s)
	out := make([]*rules.MetaRule, len(idxs))
	for i, idx := range idxs {
		out[i] = l.Rules[idx]
	}
	return out
}

// AppendMatches appends the indices (into Rules, ascending) of the
// meta-rules applicable to t to dst and returns the extended slice: the
// lattice-native form of Match. It is the family with no free attributes
// — PrepareFamily(t, nil, s) answered in its one, empty context — so the
// traversal visits exactly t's matches.
//
// Given a warmed scratch and sufficient dst capacity, AppendMatches does
// not allocate.
func (l *MRSL) AppendMatches(dst []int, t relation.Tuple, choice VoterChoice, s *MatchScratch) []int {
	l.PrepareFamily(t, nil, s)
	return s.AppendContext(dst, nil, choice)
}

// PrepareFamily matches the lattice once against a family of tuples: t
// with each of its free attributes, which t must leave missing, set to
// any value. A context is one assignment of the free attributes, and
// AppendContext then answers it as AppendMatches would answer t
// completed by the context, from bitsets of the candidates' values on
// the free attributes.
//
// The candidates are the rules whose bodies assign only t's known
// attributes and the free ones, and agree with t on the known ones. They
// are found by a top-down traversal of the Hasse diagram that starts at
// the top-level rule and descends only into candidate children.
// Candidates form a downward-closed set from the top — a rule's body is a
// superset of each of its covers' bodies — so the traversal visits every
// candidate and prunes every other branch; the cost is O(candidates ×
// cover fanout) body tests instead of the 2^k sub-assignment enumeration
// over k evidence attributes, and it is paid once for all the family's
// contexts.
func (l *MRSL) PrepareFamily(t relation.Tuple, free []int, s *MatchScratch) {
	s.l = l
	words := l.maskWords
	if w := rules.MaskWords(len(t)); w > words {
		words = w
	}
	s.tmask = rules.AppendTupleMask(s.tmask[:0], t, words)
	for _, a := range free {
		setBit(s.tmask, int32(a))
	}
	s.visited = resetBits(s.visited, len(l.Rules))
	s.cand = resetBits(s.cand, len(l.Rules))

	// The top-level rule (index 0, empty body) is always a candidate.
	setBit(s.visited, 0)
	setBit(s.cand, 0)
	s.stack = append(s.stack[:0], 0)
	for len(s.stack) > 0 {
		i := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, c := range l.children[i] {
			if hasBit(s.visited, c) {
				continue
			}
			setBit(s.visited, c)
			if l.compiled[c].MatchedBy(t, s.tmask) {
				setBit(s.cand, c)
				s.stack = append(s.stack, c)
			}
		}
	}

	// List the candidates in ascending rule order, with their values on
	// the free attributes.
	s.cands, s.vals, s.nvals = s.cands[:0], s.vals[:0], s.nvals[:0]
	for range free {
		s.nvals = append(s.nvals, 0)
	}
	for w, word := range s.cand {
		for ; word != 0; word &= word - 1 {
			r := int32(w<<6 + bits.TrailingZeros64(word))
			s.cands = append(s.cands, r)
			body := &l.compiled[r]
			for f, a := range free {
				v := int32(relation.Missing)
				for i, ba := range body.Attrs {
					if int(ba) == a {
						v = body.Vals[i]
						s.nvals[f] = max(s.nvals[f], int(v)+1)
						break
					}
				}
				s.vals = append(s.vals, v)
			}
		}
	}

	// Lay out the rows, then set each candidate's bits.
	n := len(s.cands)
	s.words = (n + 63) / 64
	s.base = s.base[:0]
	nrows := 1
	for f := range free {
		s.base = append(s.base, nrows)
		nrows += 1 + s.nvals[f]
	}
	s.rows = resetBits(s.rows, nrows*s.words*64)
	for c := 0; c < n; c++ {
		bit := uint64(1) << (c & 63)
		s.rows[c>>6] |= bit
		for f, v := range s.vals[c*len(free) : (c+1)*len(free)] {
			row := s.base[f] + 1 + int(v) // the open row when v is Missing
			s.rows[row*s.words+c>>6] |= bit
		}
	}
}

// AppendContext appends to dst the indices (into Rules, ascending) of the
// meta-rules of the prepared family applicable in context ctx, where
// ctx[f] is the value of the family's f-th free attribute, and returns
// the extended slice: exactly AppendMatches's answer for t completed by
// ctx. A candidate matches when each of its values on the free
// attributes is open or equal to ctx's, so the matches are the
// intersection over the free attributes of their open row and the row of
// ctx's value.
//
// For BestVoters the most specific matches are found by marking the
// covers of every match: a match is most specific exactly when no other
// match lists it as a cover, since any match strictly below it reaches it
// through a cover chain of matches. This replaces the O(matches²)
// pairwise subsumption scan.
func (s *MatchScratch) AppendContext(dst []int, ctx []int, choice VoterChoice) []int {
	w := s.words
	s.matched = append(s.matched[:0], s.rows[:w]...)
	for f, v := range ctx {
		open := s.rows[s.base[f]*w : (s.base[f]+1)*w]
		if v < 0 || v >= s.nvals[f] {
			for i, m := range open {
				s.matched[i] &= m
			}
			continue
		}
		eq := s.rows[(s.base[f]+1+v)*w : (s.base[f]+2+v)*w]
		for i, m := range open {
			s.matched[i] &= m | eq[i]
		}
	}
	best := choice == BestVoters
	if best {
		s.covered = resetBits(s.covered, len(s.l.Rules))
		for i, word := range s.matched {
			for ; word != 0; word &= word - 1 {
				for _, p := range s.l.covers[s.cands[i<<6+bits.TrailingZeros64(word)]] {
					setBit(s.covered, int32(p))
				}
			}
		}
	}
	for i, word := range s.matched {
		for ; word != 0; word &= word - 1 {
			if r := s.cands[i<<6+bits.TrailingZeros64(word)]; !best || !hasBit(s.covered, r) {
				dst = append(dst, int(r))
			}
		}
	}
	return dst
}

// Len returns the number of meta-rules in the lattice.
func (l *MRSL) Len() int { return len(l.Rules) }

// Config controls Algorithm 1.
type Config struct {
	// SupportThreshold is theta, the minimum support of a frequent itemset.
	SupportThreshold float64
	// MaxItemsets is the per-round Apriori cutoff; <= 0 selects the paper's
	// default of 1000.
	MaxItemsets int
	// MaxBodySize bounds meta-rule body size; <= 0 means unbounded.
	MaxBodySize int
	// IncludePartial also learns from the complete portions of incomplete
	// tuples (the paper's Section III variant). When set, Learn accepts
	// relations containing incomplete tuples.
	IncludePartial bool
}

// Stats records facts about a learning run.
type Stats struct {
	// BuildTime is the wall-clock duration of Learn.
	BuildTime time.Duration
	// NumItemsets is the number of frequent itemsets mined.
	NumItemsets int
	// Truncated reports whether Apriori stopped early at the MaxItemsets
	// cutoff.
	Truncated bool
	// TrainingSize is the number of complete tuples learned from.
	TrainingSize int
}

// Model is the MRSL model (Definition 2.9): one meta-rule semi-lattice per
// attribute of the schema, plus the configuration and statistics of the
// learning run that produced it.
type Model struct {
	Schema   *relation.Schema
	Lattices []*MRSL
	Config   Config
	Stats    Stats
}

// Learn implements Algorithm 1: mine frequent itemsets from the complete
// relation rc, derive association rules and meta-rules per attribute, and
// assemble one MRSL per attribute. rc must contain only complete tuples.
func Learn(rc *relation.Relation, cfg Config) (*Model, error) {
	start := time.Now()
	maxSize := 0
	if cfg.MaxBodySize > 0 {
		// A meta-rule with body size b needs itemsets of size b+1.
		maxSize = cfg.MaxBodySize + 1
	}
	mined, err := itemset.Mine(rc, itemset.Config{
		SupportThreshold: cfg.SupportThreshold,
		MaxItemsets:      cfg.MaxItemsets,
		MaxSize:          maxSize,
		IncludePartial:   cfg.IncludePartial,
	})
	if err != nil {
		return nil, fmt.Errorf("core: mining itemsets: %w", err)
	}
	m := &Model{
		Schema:   rc.Schema,
		Lattices: make([]*MRSL, rc.Schema.NumAttrs()),
		Config:   cfg,
	}
	for a := 0; a < rc.Schema.NumAttrs(); a++ {
		rs, err := rules.BuildRules(mined, a)
		if err != nil {
			return nil, fmt.Errorf("core: building rules for attribute %d: %w", a, err)
		}
		card := rc.Schema.Attrs[a].Card()
		metas, err := rules.BuildMetaRules(rs, card)
		if err != nil {
			return nil, fmt.Errorf("core: building meta-rules for attribute %d: %w", a, err)
		}
		l, err := newMRSL(a, card, metas)
		if err != nil {
			return nil, err
		}
		m.Lattices[a] = l
	}
	m.Stats = Stats{
		BuildTime:    time.Since(start),
		NumItemsets:  mined.Len(),
		Truncated:    mined.Truncated,
		TrainingSize: rc.Len(),
	}
	return m, nil
}

// Lattice returns the MRSL for the given attribute index.
func (m *Model) Lattice(attr int) (*MRSL, error) {
	if attr < 0 || attr >= len(m.Lattices) {
		return nil, fmt.Errorf("core: attribute %d out of range", attr)
	}
	return m.Lattices[attr], nil
}

// Size returns the total number of meta-rules across all lattices — the
// paper's "model size" metric (Fig. 4(c), Fig. 9).
func (m *Model) Size() int {
	n := 0
	for _, l := range m.Lattices {
		n += l.Len()
	}
	return n
}
