// Intensional SPJ layer: multi-relation select-project-join queries
// compiled to per-answer lineage over tuple events, with a safety
// analyzer that recognizes hierarchical (safe) plans and dissociation
// propagation for the rest.
//
// The paper learns one model over a PK-FK join of the base relations
// (Section I-B); this layer performs that join at query time. Each
// joined row i carries conjunctive lineage — the base tuple of every
// input it was assembled from — and derivation turns it into one
// probabilistic block, so a query answer is a DNF over those blocks. The
// existing extensional pipeline treats the blocks as independent, which
// is exactly the *dissociation* of the lineage (Gatterbauer & Suciu,
// "Dissociation and Propagation for Efficient Query Evaluation over
// Probabilistic Databases"): each shared base tuple is split into one
// independent copy per joined row.
//
// Safety. A plan is safe (hierarchical, read-once) when no uncertain
// base tuple the query depends on is shared by two or more non-refuted
// joined rows: then the dissociation changed nothing and extensional
// evaluation is exact — bit-identical to deriving the joined relation
// and evaluating naively (the oracle the property tests replay). The
// analyzer needs no engine: sharing comes from the join traces,
// refutation from evidence/structure classification, and relevance from
// the compiled predicates, group attribute, and projection.
//
// Unsafe plans. Linear operators — expected counts, threshold counts,
// per-row topk masses, groupby histograms — depend only on per-row
// marginals, which dissociation preserves, so they stay exact even over
// unsafe plans. Exists is the non-linear case: the independence product
// 1 - prod(1 - p_i) over-counts shared tuples and is a sound *upper*
// bound on the intensional existence probability, while any single row's
// probability is a sound lower bound. Eval surfaces that as
// Result.Dissociated plus a [lo, hi] interval assembled from the
// planner's per-row dissociation intervals — max_i lo_i on the low side,
// the folded 1 - prod(1 - hi_i) on the high side — and a thresholded
// exists whose interval clears (lo >= minprob) or refutes (hi < minprob)
// the threshold is decided without running a single Gibbs chain.
//
// Projection turns the query into distinct-answer mode (count and topk
// only): each answer is a projected value tuple whose probability is the
// chance at least one row completes to it and satisfies the predicates,
// folded as an independence product in input order (per-row masses sum
// in block-alternative order), so safe-plan projected answers are again
// bit-identical to the join-then-derive oracle.
package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/derive"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// SPJInput is one named input relation of an SPJ query.
type SPJInput struct {
	Name string
	Rel  *relation.Relation
}

// SPJJoin equi-joins the next input onto the accumulated left side:
// LeftAttr is the foreign key in the joined-so-far schema, RightAttr the
// primary key in the input being joined. Attribute names resolve exactly
// first, then by unique ".name" suffix (join prefixing and model schemas
// learned over joined CSVs both produce qualified names).
type SPJJoin struct {
	LeftAttr  string
	RightAttr string
}

// SPJSpec is the uncompiled multi-relation query: the single-relation
// Spec (operator, predicates, threshold) plus the inputs, the join
// chain, and an optional projection. Joins[j] joins Inputs[j+1] onto the
// accumulated left side; Inputs[0] is the base relation.
type SPJSpec struct {
	Spec
	Inputs []SPJInput
	Joins  []SPJJoin
	// Project lists the projected attribute names (model-schema names).
	// Non-empty switches the query to distinct-answer mode, valid for
	// Count and TopK only.
	Project []string
	// KeepKeys keeps the join key columns in the joined relation (they
	// must then exist in the model schema).
	KeepKeys bool
}

// spjOrigin locates a joined column's source: input index and attribute
// index within that input's schema.
type spjOrigin struct {
	input, attr int
}

// SPJ is a compiled SPJ query: the joined, model-aligned relation with
// per-row lineage, the compiled single-relation query over it, the
// projection, and the safety verdict.
type SPJ struct {
	q       *Query
	rel     *relation.Relation
	answers *relation.Schema
	project []int // model attr indices, in projection order
	safe    bool
	shared  int
	jinfo   JoinPlanInfo
	// rowSrc[j][i] is joined row i's source tuple index in input j (-1
	// when the row's chain dangled before reaching input j). rowSrc[0] is
	// nil: the base provenance of row i is i itself.
	rowSrc [][]int
}

// Query returns the compiled single-relation query over the joined,
// model-aligned relation.
func (s *SPJ) Query() *Query { return s.q }

// SourceRelation returns the joined relation, aligned to the model
// schema, or nil for a nil SPJ. Shared; do not mutate. It makes a
// compiled SPJ a source that Eval evaluates (derive.Source).
func (s *SPJ) SourceRelation() *relation.Relation {
	if s == nil {
		return nil
	}
	return s.rel
}

// AnswerSchema returns the schema of projected answers (distinct-answer
// mode), or nil when the query selects whole tuples.
func (s *SPJ) AnswerSchema() *relation.Schema { return s.answers }

// Safe reports the safety verdict: true means extensional evaluation is
// exact for every operator.
func (s *SPJ) Safe() bool { return s.safe }

// JoinInfo returns a copy of the plan summary's SPJ section.
func (s *SPJ) JoinInfo() *JoinPlanInfo {
	j := s.jinfo
	return &j
}

// matchAttr reports whether joined-column name n names model attribute
// m: exact, or qualified on either side ("cities.city" matches "city",
// and an input column "x" matches a model column "right.x" learned from
// a joined CSV).
func matchAttr(m, n string) bool {
	return m == n || strings.HasSuffix(n, "."+m) || strings.HasSuffix(m, "."+n)
}

// findAttr resolves name within s: exact match first, then a unique
// suffix match.
func findAttr(s *relation.Schema, name string) (int, error) {
	if i := s.AttrIndex(name); i >= 0 {
		return i, nil
	}
	at := -1
	for i, a := range s.Attrs {
		if matchAttr(name, a.Name) {
			if at >= 0 {
				return -1, fmt.Errorf("query: attribute %q is ambiguous (matches %q and %q)",
					name, s.Attrs[at].Name, a.Name)
			}
			at = i
		}
	}
	if at < 0 {
		return -1, fmt.Errorf("query: unknown attribute %q (have %s)", name, strings.Join(s.SortedAttrNames(), ", "))
	}
	return at, nil
}

// quietModelAttr is findAttr against the model schema that reports "no
// match" (-1) instead of erroring on absence or ambiguity — used while
// re-encoding inputs, where unmatched columns are usually join keys the
// final alignment will drop.
func quietModelAttr(s *relation.Schema, name string) int {
	if i := s.AttrIndex(name); i >= 0 {
		return i
	}
	at := -1
	for i, a := range s.Attrs {
		if matchAttr(name, a.Name) {
			if at >= 0 {
				return -1
			}
			at = i
		}
	}
	return at
}

// recodeToModel clones in, re-encoding every column that names a model
// attribute into the model's domain (CSV inference sorts the labels it
// happens to see, so input codes rarely line up with model codes).
// Columns with no model counterpart — typically join keys — are copied
// verbatim.
func recodeToModel(model *relation.Schema, in *relation.Relation, inputName string) (*relation.Relation, error) {
	attrs := make([]relation.Attribute, len(in.Schema.Attrs))
	remap := make([][]int, len(attrs))
	for i, a := range in.Schema.Attrs {
		attrs[i] = relation.Attribute{Name: a.Name, Domain: append([]string(nil), a.Domain...)}
		m := quietModelAttr(model, a.Name)
		if m < 0 {
			continue
		}
		codes := make([]int, a.Card())
		for v, label := range a.Domain {
			code, err := model.ValueCode(m, label)
			if err != nil {
				return nil, fmt.Errorf("query: input %s: column %q label %q is not in the model domain of %q",
					inputName, a.Name, label, model.Attrs[m].Name)
			}
			codes[v] = code
		}
		attrs[i] = relation.Attribute{Name: a.Name, Domain: append([]string(nil), model.Attrs[m].Domain...)}
		remap[i] = codes
	}
	schema, err := relation.NewSchema(attrs)
	if err != nil {
		return nil, fmt.Errorf("query: input %s: %w", inputName, err)
	}
	out := relation.NewRelation(schema)
	for _, t := range in.Tuples {
		tu := make(relation.Tuple, len(t))
		for i, v := range t {
			if v != relation.Missing && remap[i] != nil {
				v = remap[i][v]
			}
			tu[i] = v
		}
		if err := out.Append(tu); err != nil {
			return nil, fmt.Errorf("query: input %s: %w", inputName, err)
		}
	}
	return out, nil
}

// recodeColumn re-encodes one column of rel (a private clone) into the
// given domain, which must contain every current label.
func recodeColumn(rel *relation.Relation, col int, domain []string) error {
	old := rel.Schema.Attrs[col].Domain
	pos := make(map[string]int, len(domain))
	for i, l := range domain {
		pos[l] = i
	}
	codes := make([]int, len(old))
	for v, label := range old {
		i, ok := pos[label]
		if !ok {
			return fmt.Errorf("query: label %q missing from aligned key domain", label)
		}
		codes[v] = i
	}
	rel.Schema.Attrs[col].Domain = append([]string(nil), domain...)
	for _, t := range rel.Tuples {
		if t[col] != relation.Missing {
			t[col] = codes[t[col]]
		}
	}
	return nil
}

// alignKeyDomains puts the two join key columns on one shared domain:
// identical domains pass through, anything else is re-encoded to the
// sorted union of their labels (deterministic whatever subset of keys
// each CSV happened to contain).
func alignKeyDomains(left *relation.Relation, lk int, right *relation.Relation, rk int) error {
	la, ra := left.Schema.Attrs[lk], right.Schema.Attrs[rk]
	if la.Card() == ra.Card() {
		same := true
		for i := range la.Domain {
			if la.Domain[i] != ra.Domain[i] {
				same = false
				break
			}
		}
		if same {
			return nil
		}
	}
	seen := make(map[string]bool, la.Card()+ra.Card())
	var union []string
	for _, l := range la.Domain {
		if !seen[l] {
			seen[l] = true
			union = append(union, l)
		}
	}
	for _, l := range ra.Domain {
		if !seen[l] {
			seen[l] = true
			union = append(union, l)
		}
	}
	sort.Strings(union)
	if err := recodeColumn(left, lk, union); err != nil {
		return err
	}
	return recodeColumn(right, rk, union)
}

// CompileSPJ validates and compiles spec against the model schema: it
// re-encodes every input into model domains, folds the join chain
// (tracking per-row lineage), aligns the joined relation to the model
// schema, compiles the single-relation query, and runs the safety
// analyzer. Input relations are cloned — registered datasets and other
// shared relations are never mutated.
func CompileSPJ(model *relation.Schema, spec SPJSpec) (*SPJ, error) {
	if model == nil {
		return nil, fmt.Errorf("query: nil model schema")
	}
	if len(spec.Inputs) == 0 {
		return nil, fmt.Errorf("query: spj requires at least one input relation")
	}
	if len(spec.Joins) != len(spec.Inputs)-1 {
		return nil, fmt.Errorf("query: %d joins cannot chain %d inputs (want %d)",
			len(spec.Joins), len(spec.Inputs), len(spec.Inputs)-1)
	}
	for i, in := range spec.Inputs {
		if in.Name == "" {
			return nil, fmt.Errorf("query: input %d has no name", i)
		}
		if in.Rel == nil {
			return nil, fmt.Errorf("query: input %q has no relation", in.Name)
		}
	}

	// Clone + re-encode each input, then fold the join chain. Every join
	// preserves row count and order (one output row per left row), so
	// joined row i is base row i throughout and each join's trace indexes
	// joined rows directly.
	clones := make([]*relation.Relation, len(spec.Inputs))
	for i, in := range spec.Inputs {
		c, err := recodeToModel(model, in.Rel, in.Name)
		if err != nil {
			return nil, err
		}
		clones[i] = c
	}
	acc := clones[0]
	prov := make(map[string]spjOrigin, acc.Schema.NumAttrs())
	for i, a := range acc.Schema.Attrs {
		prov[a.Name] = spjOrigin{input: 0, attr: i}
	}
	rowSrc := make([][]int, len(spec.Inputs))
	var conditions []string
	for j, join := range spec.Joins {
		right := clones[j+1]
		rightName := spec.Inputs[j+1].Name
		lk, err := findAttr(acc.Schema, join.LeftAttr)
		if err != nil {
			return nil, fmt.Errorf("query: join %d left key: %w", j+1, err)
		}
		rk, err := findAttr(right.Schema, join.RightAttr)
		if err != nil {
			return nil, fmt.Errorf("query: join %d (%s) right key: %w", j+1, rightName, err)
		}
		if err := alignKeyDomains(acc, lk, right, rk); err != nil {
			return nil, fmt.Errorf("query: join %d (%s): %w", j+1, rightName, err)
		}
		lkName := acc.Schema.Attrs[lk].Name
		lkOrigin := prov[lkName]
		conditions = append(conditions, fmt.Sprintf("%s.%s = %s.%s",
			spec.Inputs[lkOrigin.input].Name,
			spec.Inputs[lkOrigin.input].Rel.Schema.Attrs[lkOrigin.attr].Name,
			rightName, spec.Inputs[j+1].Rel.Schema.Attrs[rk].Name))
		out, trace, err := relation.JoinTrace(acc, right, relation.JoinSpec{
			LeftKey: lk, RightKey: rk, KeepKeys: spec.KeepKeys,
			LeftPrefix: spec.Inputs[0].Name, RightPrefix: rightName,
		})
		if err != nil {
			return nil, fmt.Errorf("query: join %d (%s): %w", j+1, rightName, err)
		}
		// Provenance: left names pass through unchanged (they are unique
		// and added first, so addAttr never prefixes them); the right
		// side's columns occupy the output tail, in right-schema order
		// minus the dropped PK, under possibly prefixed names.
		if !spec.KeepKeys {
			delete(prov, lkName)
		}
		nLeft := acc.Schema.NumAttrs()
		if !spec.KeepKeys {
			nLeft--
		}
		pos := nLeft
		for ri := range right.Schema.Attrs {
			if ri == rk && !spec.KeepKeys {
				continue
			}
			prov[out.Schema.Attrs[pos].Name] = spjOrigin{input: j + 1, attr: ri}
			pos++
		}
		rowSrc[j+1] = trace
		acc = out
	}

	// Align the joined relation to the model schema: one column per model
	// attribute, matched by name, with identical domains. Extra joined
	// columns (kept keys the model was not learned over) are dropped —
	// keys are identifiers, not statistical evidence.
	srcCol := make([]int, model.NumAttrs())
	finalProv := make([]spjOrigin, model.NumAttrs())
	for m, ma := range model.Attrs {
		c, err := findAttr(acc.Schema, ma.Name)
		if err != nil {
			return nil, fmt.Errorf("query: joined relation: %w", err)
		}
		if d := ma.Domain; len(d) != len(acc.Schema.Attrs[c].Domain) || func() bool {
			for i := range d {
				if d[i] != acc.Schema.Attrs[c].Domain[i] {
					return true
				}
			}
			return false
		}() {
			return nil, fmt.Errorf("query: joined column %q does not carry the model domain of %q (is it a join key the model was not learned over?)",
				acc.Schema.Attrs[c].Name, ma.Name)
		}
		srcCol[m] = c
		finalProv[m] = prov[acc.Schema.Attrs[c].Name]
	}
	final := relation.NewRelation(model)
	for _, t := range acc.Tuples {
		tu := make(relation.Tuple, model.NumAttrs())
		for m, c := range srcCol {
			tu[m] = t[c]
		}
		if err := final.Append(tu); err != nil {
			return nil, fmt.Errorf("query: joined relation: %w", err)
		}
	}

	// Compile the single-relation query over the model schema, then the
	// projection.
	q, err := Compile(model, spec.Spec)
	if err != nil {
		return nil, err
	}
	spj := &SPJ{q: q, rel: final, rowSrc: rowSrc}
	if len(spec.Project) > 0 {
		if q.op != Count && q.op != TopK {
			return nil, fmt.Errorf("query: projection (distinct answers) is only valid for count and topk, not %v", q.op)
		}
		attrs := make([]relation.Attribute, 0, len(spec.Project))
		seen := make(map[int]bool, len(spec.Project))
		for _, name := range spec.Project {
			m, err := findAttr(model, name)
			if err != nil {
				return nil, fmt.Errorf("query: projection: %w", err)
			}
			if seen[m] {
				return nil, fmt.Errorf("query: projection lists %q twice", model.Attrs[m].Name)
			}
			seen[m] = true
			spj.project = append(spj.project, m)
			attrs = append(attrs, model.Attrs[m])
		}
		spj.answers, err = relation.NewSchema(attrs)
		if err != nil {
			return nil, fmt.Errorf("query: projection: %w", err)
		}
		// Distinct-answer mode needs every row's exact per-completion
		// masses; interval planning would be wasted work.
		q.boundsOff = true
	}

	spj.analyzeSafety(spec, clones, finalProv)
	names := make([]string, len(spec.Inputs))
	for i, in := range spec.Inputs {
		names[i] = in.Name
	}
	verdict := "safe (hierarchical) — extensional evaluation is exact"
	if !spj.safe {
		verdict = fmt.Sprintf("unsafe — %d base tuple(s) shared by joined rows with relevant missing attributes; exists answers are dissociation upper bounds", spj.shared)
	}
	var projNames []string
	for _, m := range spj.project {
		projNames = append(projNames, model.Attrs[m].Name)
	}
	spj.jinfo = JoinPlanInfo{
		Relations: names, Conditions: conditions, Projection: projNames,
		Safe: spj.safe, SharedUncertain: spj.shared, Verdict: verdict,
	}
	return spj, nil
}

// analyzeSafety decides the safety verdict. The plan is unsafe exactly
// when some base tuple is (a) shared — it is the lineage of two or more
// joined rows that evidence/structure cannot refute — and (b) relevantly
// uncertain — it contributed a missing attribute the query depends on
// (constrained by a non-trivial satisfying set, the group attribute, or
// projected). Dangling rows never share lineage (each gets its own
// all-missing block), and the base input maps 1:1 onto joined rows, so
// only the joined inputs can break the hierarchy.
func (s *SPJ) analyzeSafety(spec SPJSpec, clones []*relation.Relation, finalProv []spjOrigin) {
	relevant := make([]bool, s.q.schema.NumAttrs())
	for _, a := range s.q.constrained {
		if set := s.q.sat[a]; !set.full() && !set.empty() {
			relevant[a] = true
		}
	}
	if s.q.groupAttr >= 0 {
		relevant[s.q.groupAttr] = true
	}
	for _, m := range s.project {
		relevant[m] = true
	}
	// Invert provenance: per input, source attr -> model attr.
	toModel := make([]map[int]int, len(clones))
	for m, o := range finalProv {
		if toModel[o.input] == nil {
			toModel[o.input] = make(map[int]int)
		}
		toModel[o.input][o.attr] = m
	}
	live := make([]bool, len(s.rel.Tuples))
	for i, t := range s.rel.Tuples {
		live[i] = !s.q.refutes(t)
	}
	s.shared = 0
	for j := 1; j < len(clones); j++ {
		uses := make(map[int]int, len(clones[j].Tuples))
		for i, r := range s.rowSrc[j] {
			if r >= 0 && live[i] {
				uses[r]++
			}
		}
		for r, n := range uses {
			if n < 2 {
				continue
			}
			for srcA, v := range clones[j].Tuples[r] {
				if v != relation.Missing {
					continue
				}
				if m, ok := toModel[j][srcA]; ok && relevant[m] {
					s.shared++
					break
				}
			}
		}
	}
	s.safe = s.shared == 0
}

// evalExistsDissociated evaluates exists over an unsafe plan. A pre-pass
// assembles the sound [lo, hi] interval around the dissociated existence
// mass purely from the plan — lo = max_i lo_i (any single row's
// probability bounds the union from below, for any dependence
// structure), hi = 1 - prod(1 - hi_i) (the dissociated product itself is
// an upper bound on the intensional mass, and folding interval upper
// sides bounds the product) — deciding a thresholded exists without any
// derivation when the interval clears or refutes MinProb. Otherwise the
// exact extensional evaluator runs and the interval rides along on
// Result.Bounds.
func (ex *executor) evalExistsDissociated(ctx context.Context) (*Result, error) {
	var c Counters
	lo, hiMiss := 0.0, 1.0
	for i := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		act := ex.plan.acts[i]
		var l, h float64
		switch act.tier {
		case tierSkip:
			continue
		case tierCertain:
			l, h = 1, 1
		case tierObserved:
			l, h = act.iv.Lo, act.iv.Hi // exact [p, p]
		case tierVote:
			p, _, err := ex.prob(ctx, i, &c)
			if err != nil {
				return nil, err
			}
			l, h = p, p
		case tierBound:
			c.Bounded++
			c.BoundWidth += act.iv.Width()
			l, h = act.iv.Lo, math.Min(act.iv.Hi, 1)
		default: // tierDerive
			l, h = 0, 1
		}
		if l > lo {
			lo = l
		}
		hiMiss *= 1 - h
	}
	bounds := &derive.Interval{Lo: lo, Hi: 1 - hiMiss}
	if ex.q.minProb > 0 {
		switch {
		case lo >= ex.q.minProb:
			// The best single-row lower bound already reaches the
			// threshold — yes, with zero derivations.
			return &Result{Op: Exists, Prob: lo, Exists: true, EarlyStop: true,
				Bounds: bounds, Counters: c}, nil
		case bounds.Hi < ex.q.minProb:
			// Even the dissociated over-count cannot reach it — no.
			return &Result{Op: Exists, Prob: bounds.Hi, Exists: false, EarlyStop: true,
				Bounds: bounds, Counters: c}, nil
		}
	}
	// Undecided (or unthresholded): evaluate the dissociated product
	// exactly. The pre-pass counters are discarded — evalExists recounts,
	// and the blocks it read are already in the engine's cache.
	res, err := ex.evalExists(ctx)
	if err != nil {
		return nil, err
	}
	res.Bounds = bounds
	return res, nil
}

// spjAnswer accumulates one distinct projected answer: 1 - miss is the
// probability at least one row completes to it and satisfies the
// predicates.
type spjAnswer struct {
	first int // input row of first appearance (tie-break)
	tuple relation.Tuple
	miss  float64
}

// evalProject runs distinct-answer mode: per input row, the satisfying
// completions' masses are folded per projected value (in
// block-alternative order), then combined across rows as an independence
// product in input order — the same float operations the
// join-then-derive oracle performs, so safe-plan answers are
// bit-identical. Bounds are off (boundsOff): every non-refuted row
// resolves exactly.
func (ex *executor) evalProject(ctx context.Context, project []int) (*Result, error) {
	// The distinct-answer fold has no interval to fall back on, so it runs
	// without a deadline budget: resolve never degrades a tuple here, and a
	// spent deadline fails the evaluation instead of dropping mass.
	ex.hasDL = false
	res := &Result{Op: ex.q.op}
	var work []int
	for i := range ex.rel.Tuples {
		switch ex.plan.acts[i].tier {
		case tierVote, tierBound, tierDerive:
			work = append(work, i)
		}
	}
	if err := ex.prefetch(ctx, work); err != nil {
		return nil, err
	}

	var order []*spjAnswer
	seen := make(map[string]*spjAnswer)
	var keyBuf []byte
	type rowEntry struct {
		key  string
		proj relation.Tuple
		mass float64
	}
	var entries []rowEntry
	rowIdx := make(map[string]int)
	// addAlt folds one satisfying completion of the current row into its
	// projected value's mass, in block-alternative order.
	addAlt := func(a pdb.Alternative) {
		keyBuf = keyBuf[:0]
		for _, p := range project {
			keyBuf = appendKeyCode(keyBuf, a.Tuple[p])
		}
		if j, ok := rowIdx[string(keyBuf)]; ok {
			entries[j].mass += a.Prob
			return
		}
		proj := make(relation.Tuple, len(project))
		for pi, p := range project {
			proj[pi] = a.Tuple[p]
		}
		k := string(keyBuf)
		rowIdx[k] = len(entries)
		entries = append(entries, rowEntry{key: k, proj: proj, mass: a.Prob})
	}

	for i := range ex.rel.Tuples {
		if err := ex.scanErr(ctx); err != nil {
			return nil, err
		}
		if ex.plan.acts[i].tier == tierSkip {
			continue
		}
		entries = entries[:0]
		clear(rowIdx)
		if _, err := ex.resolve(ctx, i, &res.Counters, addAlt); err != nil {
			return nil, err
		}
		for _, e := range entries {
			ans := seen[e.key]
			if ans == nil {
				ans = &spjAnswer{first: i, tuple: e.proj, miss: 1}
				seen[e.key] = ans
				order = append(order, ans)
			}
			ans.miss *= 1 - e.mass
		}
	}

	rows := make([]Row, 0, len(order))
	for _, a := range order {
		p := 1 - a.miss
		if ex.q.minProb > 0 && p < ex.q.minProb {
			continue
		}
		rows = append(rows, Row{Index: a.first, Tuple: a.tuple, Prob: p, Certain: p >= 1})
	}
	switch ex.q.op {
	case Count:
		if ex.q.minProb > 0 {
			res.Count = int64(len(rows))
		} else {
			for _, r := range rows {
				res.Expected += r.Prob
			}
		}
	default: // TopK
		// rows is in first-appearance order; a stable sort by probability
		// keeps ties in that order, which is (Index asc, block order) —
		// the same tie-break as unprojected topk.
		sort.SliceStable(rows, func(a, b int) bool { return rows[a].Prob > rows[b].Prob })
		if ex.q.k > 0 && len(rows) > ex.q.k {
			rows = rows[:ex.q.k]
		}
		res.Rows = rows
	}
	return res, nil
}

// appendKeyCode appends one value code (possibly Missing) to a map key.
func appendKeyCode(b []byte, v int) []byte {
	u := uint64(v+1) << 1 // shift Missing (-1) to 0; completions are >= 0
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u))
}
