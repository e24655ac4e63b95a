// Package vote implements the single-attribute inference procedure of the
// paper (Algorithm 2, Section IV): the meta-rules of an MRSL that match an
// incomplete tuple act as an ensemble of voters, combined either by plain
// averaging or by support-weighted averaging.
package vote

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/rules"
)

// Scheme is the vote-combination method (the paper's vScheme). Averaged
// and Weighted are the two schemes the paper implements; Median and
// LogPool are the "other voting schemes [that] exist" it alludes to,
// provided as extensions and ablated in the benchmarks.
type Scheme int

const (
	// Averaged combines voter CPDs position by position with equal weight.
	Averaged Scheme = iota
	// Weighted combines voter CPDs weighted by each meta-rule's support.
	Weighted
	// Median takes the per-position median of the voter CPDs and
	// renormalizes; robust to a single wild voter.
	Median
	// LogPool combines voters by the geometric mean (logarithmic opinion
	// pool); sharper than averaging when voters agree.
	LogPool
)

// String returns the scheme's name.
func (s Scheme) String() string {
	switch s {
	case Averaged:
		return "averaged"
	case Weighted:
		return "weighted"
	case Median:
		return "median"
	case LogPool:
		return "logpool"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme converts a scheme name into a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "averaged":
		return Averaged, nil
	case "weighted":
		return Weighted, nil
	case "median":
		return Median, nil
	case "logpool":
		return LogPool, nil
	}
	return 0, fmt.Errorf("vote: unknown scheme %q", s)
}

// Method pairs a voter choice with a voting scheme; the paper evaluates all
// four combinations in Table II.
type Method struct {
	Choice core.VoterChoice
	Scheme Scheme
}

// Methods lists the four voting methods in Table II's column order:
// all-averaged, all-weighted, best-averaged, best-weighted.
func Methods() []Method {
	return []Method{
		{core.AllVoters, Averaged},
		{core.AllVoters, Weighted},
		{core.BestVoters, Averaged},
		{core.BestVoters, Weighted},
	}
}

// String renders e.g. "best weighted".
func (m Method) String() string { return m.Choice.String() + " " + m.Scheme.String() }

// Scratch holds the reusable buffers of the inference hot path: the
// lattice-matching state with the family it last prepared, the matched-rule
// index and voter slices, and the Median column buffer. A zero value is
// ready to use; reusing one across calls makes InferScratch and
// InferContext allocate only their result. Not safe for concurrent use.
type Scratch struct {
	l      *core.MRSL // the head attribute's lattice of the prepared family
	ms     core.MatchScratch
	idxs   []int
	voters []*rules.MetaRule
	col    []float64
}

// scratchPool recycles Scratch values for the convenience entry points, so
// every caller of Infer/Combine gets the buffer-reusing path without
// threading a Scratch through.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Infer estimates the conditional probability distribution of attribute
// attr in tuple t, which must be missing in t, using the model's MRSL for
// attr (Algorithm 2). The result is a positive, normalized distribution
// over the attribute's domain.
func Infer(m *core.Model, t relation.Tuple, attr int, method Method) (dist.Dist, error) {
	s := scratchPool.Get().(*Scratch)
	d, err := InferScratch(m, t, attr, method, s)
	scratchPool.Put(s)
	return d, err
}

// InferScratch is Infer with a caller-owned scratch: in steady state it
// allocates only the returned distribution. It is the family of t with no
// free attributes, voted in its one context.
func InferScratch(m *core.Model, t relation.Tuple, attr int, method Method, s *Scratch) (dist.Dist, error) {
	if err := s.PrepareFamily(m, t, attr, nil); err != nil {
		return nil, err
	}
	return s.InferContext(nil, method)
}

// PrepareFamily readies s to vote attr's CPD in t for every assignment of
// free, a list of other attributes t leaves missing: it matches attr's
// lattice once, with t's known values fixed and free as wildcards
// (core.MRSL.PrepareFamily). InferContext then votes each assignment.
func (s *Scratch) PrepareFamily(m *core.Model, t relation.Tuple, attr int, free []int) error {
	if attr < 0 || attr >= m.Schema.NumAttrs() {
		return fmt.Errorf("vote: attribute %d out of range", attr)
	}
	if t[attr] != relation.Missing {
		return fmt.Errorf("vote: attribute %q is not missing in %v",
			m.Schema.Attrs[attr].Name, t)
	}
	for _, a := range free {
		if a == attr || a < 0 || a >= len(t) || t[a] != relation.Missing {
			return fmt.Errorf("vote: free attribute %d is not another missing attribute of %v", a, t)
		}
	}
	s.l = m.Lattices[attr]
	s.l.PrepareFamily(t, free, &s.ms)
	return nil
}

// InferContext votes the CPD of the prepared family's attribute in
// context ctx, where ctx[f] is the value of the f-th free attribute. It
// is bit-identical to InferScratch on the tuple completed by ctx: the
// same voters, combined in the same ascending rule order.
func (s *Scratch) InferContext(ctx []int, method Method) (dist.Dist, error) {
	s.idxs = s.ms.AppendContext(s.idxs[:0], ctx, method.Choice)
	s.voters = s.voters[:0]
	for _, i := range s.idxs {
		s.voters = append(s.voters, s.l.Rules[i])
	}
	if len(s.voters) == 0 {
		// Cannot happen with a well-formed lattice (the top-level rule
		// matches everything), but fail soft with the marginal-free uniform.
		return dist.New(s.l.Card), nil
	}
	out := dist.Zeros(s.l.Card)
	if err := combineInto(out, s.voters, method.Scheme, s); err != nil {
		return nil, err
	}
	return out, nil
}

// Combine merges the voters' CPDs under the given scheme into a single
// estimate over card values.
func Combine(voters []*rules.MetaRule, scheme Scheme, card int) (dist.Dist, error) {
	out := dist.Zeros(card)
	if err := CombineInto(out, voters, scheme); err != nil {
		return nil, err
	}
	return out, nil
}

// CombineInto merges the voters' CPDs under the given scheme into out,
// whose length fixes the domain cardinality. It overwrites out and, given
// voters with well-formed CPDs, performs no allocation beyond the Median
// scratch of the pooled buffers.
func CombineInto(out dist.Dist, voters []*rules.MetaRule, scheme Scheme) error {
	s := scratchPool.Get().(*Scratch)
	err := combineInto(out, voters, scheme, s)
	scratchPool.Put(s)
	return err
}

func combineInto(out dist.Dist, voters []*rules.MetaRule, scheme Scheme, s *Scratch) error {
	card := len(out)
	if len(voters) == 0 {
		return fmt.Errorf("vote: no voters")
	}
	// Validate every voter exactly once, up front, for every scheme —
	// rather than re-checking inside the per-position inner loops.
	for _, v := range voters {
		if len(v.CPD) != card {
			return fmt.Errorf("vote: voter CPD has %d values, want %d", len(v.CPD), card)
		}
	}
	for i := range out {
		out[i] = 0
	}
	switch scheme {
	case Averaged:
		for _, v := range voters {
			for i, p := range v.CPD {
				out[i] += p
			}
		}
	case Weighted:
		var totalW float64
		for _, v := range voters {
			w := v.Weight
			if w < 0 {
				return fmt.Errorf("vote: negative weight %v", w)
			}
			totalW += w
			for i, p := range v.CPD {
				out[i] += w * p
			}
		}
		if totalW == 0 {
			// All-zero weights degenerate to plain averaging.
			return combineInto(out, voters, Averaged, s)
		}
	case Median:
		if cap(s.col) < len(voters) {
			s.col = make([]float64, len(voters))
		}
		col := s.col[:len(voters)]
		for i := 0; i < card; i++ {
			for vi, v := range voters {
				col[vi] = v.CPD[i]
			}
			out[i] = median(col)
		}
	case LogPool:
		for i := range out {
			out[i] = 1
		}
		inv := 1.0 / float64(len(voters))
		for _, v := range voters {
			for i, p := range v.CPD {
				if p <= 0 {
					return fmt.Errorf("vote: logpool needs positive CPDs, got %v", p)
				}
				out[i] *= math.Pow(p, inv)
			}
		}
	default:
		return fmt.Errorf("vote: unknown scheme %v", scheme)
	}
	out.Normalize()
	// Voters' CPDs are positive, so the combination is too; Smooth guards
	// against degenerate hand-built voters.
	if !out.IsPositive() {
		out.Smooth(dist.SmoothFloor)
	}
	return nil
}

// median returns the median of vals; the input slice is reordered.
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return 0.5 * (vals[n/2-1] + vals[n/2])
}

// InferAll runs Infer for every missing attribute of t independently and
// returns the per-attribute estimates keyed by attribute index. This is the
// independence-assuming estimator the paper warns about in Section V; it is
// exact only when t has a single missing attribute.
func InferAll(m *core.Model, t relation.Tuple, method Method) (map[int]dist.Dist, error) {
	out := make(map[int]dist.Dist)
	for _, a := range t.MissingAttrs() {
		d, err := Infer(m, t, a, method)
		if err != nil {
			return nil, err
		}
		out[a] = d
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("vote: tuple %v has no missing attributes", t)
	}
	return out, nil
}
