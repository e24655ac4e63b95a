package gibbs

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/vote"
)

// This file implements the exact tier of multi-missing inference. An
// ordered Gibbs chain converges to the stationary distribution of its own
// systematic-scan kernel, whether or not the voted local CPDs are the
// conditionals of one joint. For a tuple whose missing attributes have
// cardinalities c_1..c_k the kernel has S = ∏c_i states and needs only
// Σ S/c_i distinct local CPDs, so a small kernel can be solved outright:
// fetch its CPDs once, then run power iteration of the sweep from the
// chain's uniform start. Each kernel step is a project-then-join over one
// CPD table.

// exactTol is the L1 change between two successive sweeps at which power
// iteration counts as converged.
const exactTol = 1e-12

// Infer is the serving estimator of one multi-missing tuple: the single
// entry point that holds the exact tier's rule. It solves t exactly
// (Stationary) when the kernel needs no more local CPDs than the chain
// draws, Σ_i S/c_i <= (B+N)·k, and falls back to InferIndependent's
// content-seeded chain when it does not or when power iteration has not
// converged within the chain's B+N sweeps. exact reports which tier
// answered; points counts the chain's draws including burn-in, 0 for an
// exact answer. Both tiers are pure functions of the model, cfg and t, so
// the result is bit-identical for every worker count, cache bound and
// call order. It fires the gibbs.chain and gibbs.sweep fault points once
// per call, whichever tier answers.
func Infer(m *core.Model, cfg Config, t relation.Tuple) (j *dist.Joint, points int, exact bool, err error) {
	faultinject.Fire("gibbs.chain") // forced panic: exercises chain-worker recovery
	faultinject.Fire("gibbs.sweep") // delayed sweep: stretches chain wall-clock
	if err := checkInfer(m, cfg, t); err != nil {
		return nil, 0, false, err
	}
	if exactCPDs(m, t, (cfg.burnIn()+cfg.Samples)*t.NumMissing()) {
		j, ok, err := stationary(m, cfg, t)
		if err != nil || ok {
			return j, 0, ok, err
		}
	}
	j, points, err = runChain(m, cfg, t)
	return j, points, false, err
}

// exactCPDs reports whether t's kernel needs at most budget distinct local
// CPDs: Σ_i S/c_i <= budget. Since every S/c_i is at least S/max(c), a
// partial product beyond budget·max(c) already fails the rule, which also
// keeps the product far from overflow.
func exactCPDs(m *core.Model, t relation.Tuple, budget int) bool {
	missing := t.MissingAttrs()
	maxCard := 0
	for _, a := range missing {
		maxCard = max(maxCard, m.Schema.Attrs[a].Card())
	}
	s := 1
	for _, a := range missing {
		if s > budget*maxCard {
			return false
		}
		s *= m.Schema.Attrs[a].Card()
	}
	need := 0
	for _, a := range missing {
		need += s / m.Schema.Attrs[a].Card()
	}
	return need <= budget
}

// Stationary returns the stationary distribution of t's ordered-Gibbs
// sweep kernel — the distribution an InferIndependent chain for t
// converges to — over t's missing attributes, normalized and smoothed as
// the chain's estimate is. ok is false when power iteration has not
// converged within the chain's B+N sweeps. Local CPDs come through
// cfg.Cache when it is set, in the slots the chains use. It uses no seed
// and no RNG, and it applies no size rule: callers that serve requests go
// through Infer.
func Stationary(m *core.Model, cfg Config, t relation.Tuple) (j *dist.Joint, ok bool, err error) {
	if err := checkInfer(m, cfg, t); err != nil {
		return nil, false, err
	}
	return stationary(m, cfg, t)
}

// checkInfer validates the arguments of a single-tuple estimate.
func checkInfer(m *core.Model, cfg Config, t relation.Tuple) error {
	if m == nil {
		return fmt.Errorf("gibbs: nil model")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if t.NumMissing() == 0 {
		return fmt.Errorf("gibbs: tuple %v has no missing attributes", t)
	}
	return nil
}

func stationary(m *core.Model, cfg Config, t relation.Tuple) (*dist.Joint, bool, error) {
	k, err := newKernel(m, cfg, t)
	if err != nil {
		return nil, false, err
	}
	pi, ok := k.solve(cfg.burnIn() + cfg.Samples)
	if !ok {
		return nil, false, nil
	}
	k.joint.P = pi
	return k.joint.Normalize().Smooth(dist.SmoothFloor), true, nil
}

// kernel is the sweep kernel of one tuple's chain. States are the
// assignments of the missing attributes in MissingAttrs order, indexed in
// dist.Joint's mixed radix (last attribute fastest).
type kernel struct {
	joint *dist.Joint // the state space; P is unset until solve
	// strides[i] is the index distance between neighbouring values of
	// missing attribute i.
	strides []int
	// tables[i][ctx] is attribute i's local CPD in context ctx: the
	// assignment of the other missing attributes, in mixed radix.
	tables [][]dist.Dist
}

// newKernel fetches every local CPD of t's kernel, S/c_i per missing
// attribute i, one family per table.
func newKernel(m *core.Model, cfg Config, t relation.Tuple) (*kernel, error) {
	missing := t.MissingAttrs()
	cards := make([]int, len(missing))
	for i, a := range missing {
		cards[i] = m.Schema.Attrs[a].Card()
	}
	j, err := dist.NewJoint(missing, cards)
	if err != nil {
		return nil, err
	}
	k := &kernel{joint: j, strides: make([]int, len(missing)), tables: make([][]dist.Dist, len(missing))}
	stride := 1
	for i := len(cards) - 1; i >= 0; i-- {
		k.strides[i] = stride
		stride *= cards[i]
	}

	st := indepPool.Get().(*indepState)
	defer indepPool.Put(st)
	for i, attr := range missing {
		table := make([]dist.Dist, j.Size()/cards[i])
		if err := st.eachCPD(m, cfg, t, attr, func(ctx int, d dist.Dist) { table[ctx] = d }); err != nil {
			return nil, err
		}
		k.tables[i] = table
	}
	return k, nil
}

// EachCPD calls fn with attribute attr's local CPD in every context of
// multi-missing tuple t — every assignment of t's other missing
// attributes, indexed in mixed radix in MissingAttrs order, last
// attribute fastest, as a kernel table is — in context order: the family
// of CPDs a chain for t can draw attr from. Each CPD is served through
// cfg.Cache when one is set, under the key and in the slot a chain's
// lookup of the same state uses. On the family's first cache miss attr's
// lattice is matched once for all its contexts (vote.Scratch's
// PrepareFamily), and every miss is voted from that match.
func EachCPD(m *core.Model, cfg Config, t relation.Tuple, attr int, fn func(ctx int, d dist.Dist)) error {
	st := indepPool.Get().(*indepState)
	defer indepPool.Put(st)
	return st.eachCPD(m, cfg, t, attr, fn)
}

// eachCPD is EachCPD on the pooled state st.
func (st *indepState) eachCPD(m *core.Model, cfg Config, t relation.Tuple, attr int, fn func(ctx int, d dist.Dist)) error {
	st.free, st.ctx = st.free[:0], st.ctx[:0]
	for a, v := range t {
		if v == relation.Missing && a != attr {
			st.free, st.ctx = append(st.free, a), append(st.ctx, 0)
		}
	}
	st.state = append(st.state[:0], t...)
	prepared := false
	for n := 0; ; n++ {
		var d dist.Dist
		ok := false
		if cfg.Cache != nil {
			for f, a := range st.free {
				st.state[a] = st.ctx[f]
			}
			st.key = AppendCPDKey(st.key[:0], attr, cfg.Method, st.state)
			d, ok = cfg.Cache.Get(st.key)
		}
		if !ok {
			if !prepared {
				if err := st.scratch.PrepareFamily(m, t, attr, st.free); err != nil {
					return err
				}
				prepared = true
			}
			var err error
			if d, err = st.scratch.InferContext(st.ctx, cfg.Method); err != nil {
				return err
			}
			if cfg.Cache != nil {
				cfg.Cache.Put(st.key, d)
			}
		}
		fn(n, d)
		// Advance the context odometer, last free attribute fastest.
		f := len(st.free) - 1
		for ; f >= 0; f-- {
			if st.ctx[f]++; st.ctx[f] < m.Schema.Attrs[st.free[f]].Card() {
				break
			}
			st.ctx[f] = 0
		}
		if f < 0 {
			return nil
		}
	}
}

// sharedCPD serves attr's local CPD given state, in which attr is
// Missing, through cfg.Cache under key when a cache is set, voting on a
// miss.
func sharedCPD(m *core.Model, cfg Config, state relation.Tuple, attr int, key []byte, s *vote.Scratch) (dist.Dist, error) {
	if cfg.Cache != nil {
		if d, ok := cfg.Cache.Get(key); ok {
			return d, nil
		}
	}
	d, err := vote.InferScratch(m, state, attr, cfg.Method, s)
	if err == nil && cfg.Cache != nil {
		cfg.Cache.Put(key, d)
	}
	return d, err
}

// solve runs power iteration of the sweep kernel from the uniform start
// the chain draws from, and returns the distribution after the first
// sweep that changes it by at most exactTol in L1. ok is false when no
// sweep among the first maxSweeps does.
func (k *kernel) solve(maxSweeps int) (pi dist.Dist, ok bool) {
	pi = dist.New(k.joint.Size())
	prev := make(dist.Dist, len(pi))
	for sweep := 0; sweep < maxSweeps; sweep++ {
		copy(prev, pi)
		for i := range k.tables {
			k.step(i, pi)
		}
		var l1 float64
		for x, p := range pi {
			l1 += math.Abs(p - prev[x])
		}
		if l1 <= exactTol {
			return pi, true
		}
	}
	return pi, false
}

// step applies attribute i's kernel to pi in place: in every context it
// sums pi over i's values (project) and spreads that mass by the
// context's CPD (join) — the distribution after the chain resamples i.
func (k *kernel) step(i int, pi dist.Dist) {
	c, stride := k.joint.Cards[i], k.strides[i]
	cpds := k.tables[i]
	ctx := 0
	for base := 0; base < len(pi); base += c * stride {
		for lo := base; lo < base+stride; lo++ {
			var mass float64
			for x := lo; x < lo+c*stride; x += stride {
				mass += pi[x]
			}
			cpd := cpds[ctx]
			for v, x := 0, lo; v < c; v, x = v+1, x+stride {
				pi[x] = mass * cpd[v]
			}
			ctx++
		}
	}
}
