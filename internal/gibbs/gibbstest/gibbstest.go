// Package gibbstest is the test oracle of package gibbs's exact tier: a
// dense linear solve for the stationary distribution of an ordered Gibbs
// chain's sweep kernel. It shares no code with the solver it checks — it
// votes every local CPD afresh, builds the full S×S matrices, and solves
// the linear system by Gaussian elimination — so a test can hold the
// solver, the engine's exact-tier blocks and the goldens built from them
// to an independent answer. Only tests import it.
package gibbstest

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/pdb"
	"repro/internal/relation"
	"repro/internal/vote"
)

// blockTol is how far an exact-tier block's probabilities may sit from
// the dense reference.
const blockTol = 1e-12

// CheckBlock holds block b, derived for its multi-missing base tuple by
// an engine with Gibbs config cfg and no alternative cap, to the answer
// of the tier gibbs.Infer serves it on. On the exact tier every
// alternative must be within 1e-12 of the dense reference, normalized
// and smoothed like the estimate; on the chain tier b must equal
// gibbs.InferIndependent's chain bit for bit. exact reports the tier.
func CheckBlock(m *core.Model, cfg gibbs.Config, b *pdb.Block) (exact bool, err error) {
	t := b.Base
	cfg.Cache = nil
	_, _, exact, err = gibbs.Infer(m, cfg, t)
	if err != nil {
		return false, err
	}
	var want *dist.Joint
	tol := 0.0
	if exact {
		if want, err = Stationary(m, cfg.Method, t); err != nil {
			return true, err
		}
		want.Normalize().Smooth(dist.SmoothFloor)
		tol = blockTol
	} else if want, _, err = gibbs.InferIndependent(m, cfg, t); err != nil {
		return false, err
	}
	if len(b.Alts) != want.Size() {
		return exact, fmt.Errorf("gibbstest: block of %v has %d alternatives, want %d", t, len(b.Alts), want.Size())
	}
	vals := make([]int, len(want.Attrs))
	for _, alt := range b.Alts {
		for i, a := range want.Attrs {
			vals[i] = alt.Tuple[a]
		}
		if p := want.P[want.Index(vals)]; math.Abs(alt.Prob-p) > tol {
			return exact, fmt.Errorf("gibbstest: %v (exact tier %v) has P=%v, reference %v", alt.Tuple, exact, alt.Prob, p)
		}
	}
	return exact, nil
}

// maxStates caps the state count Stationary accepts: the dense solve
// costs O(S^3) time and O(S^2) memory.
const maxStates = 1024

// Stationary builds the sweep matrix K = K_1⋯K_k of t's ordered-Gibbs
// chain, which resamples t's missing attributes in MissingAttrs order
// from local CPDs voted under method, and solves πK = π, Σπ = 1. K_i
// moves state x to every y that agrees with x off attribute i, with
// probability P(y_i | x without i). The result is indexed like
// dist.Joint over t's missing attributes and is not smoothed.
func Stationary(m *core.Model, method vote.Method, t relation.Tuple) (*dist.Joint, error) {
	missing := t.MissingAttrs()
	if len(missing) == 0 {
		return nil, fmt.Errorf("gibbstest: tuple %v has no missing attributes", t)
	}
	cards := make([]int, len(missing))
	for i, a := range missing {
		cards[i] = m.Schema.Attrs[a].Card()
	}
	j, err := dist.NewJoint(missing, cards)
	if err != nil {
		return nil, err
	}
	n := j.Size()
	if n > maxStates {
		return nil, fmt.Errorf("gibbstest: %d states exceed the dense cap %d", n, maxStates)
	}

	k := identity(n)
	x, y := make([]int, len(missing)), make([]int, len(missing))
	state := t.Clone()
	for i, attr := range missing {
		ki := make([][]float64, n)
		for from := range ki {
			ki[from] = make([]float64, n)
			j.ValuesInto(from, x)
			for o, a := range missing {
				state[a] = x[o]
			}
			state[attr] = relation.Missing
			cpd, err := vote.Infer(m, state, attr, method)
			if err != nil {
				return nil, err
			}
			copy(y, x)
			for v, p := range cpd {
				y[i] = v
				ki[from][j.Index(y)] = p
			}
		}
		k = multiply(k, ki)
	}

	// π(K − I) = 0 is (K^T − I)π^T = 0; its rank is S−1, so the last
	// equation gives way to Σπ = 1.
	a := make([][]float64, n)
	for r := range a {
		a[r] = make([]float64, n+1)
		for c := 0; c < n; c++ {
			a[r][c] = k[c][r]
		}
		a[r][r]--
	}
	for c := range a[n-1] {
		a[n-1][c] = 1
	}
	pi, err := solve(a)
	if err != nil {
		return nil, err
	}
	copy(j.P, pi)
	return j, nil
}

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for r := range m {
		m[r] = make([]float64, n)
		m[r][r] = 1
	}
	return m
}

func multiply(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for r := range out {
		out[r] = make([]float64, n)
		for k, p := range a[r] {
			if p == 0 {
				continue
			}
			for c, q := range b[k] {
				out[r][c] += p * q
			}
		}
	}
	return out
}

// solve runs Gaussian elimination with partial pivoting on the augmented
// n×(n+1) matrix a, in place, and returns the solution.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if a[pivot][col] == 0 {
			return nil, fmt.Errorf("gibbstest: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := a[r][n]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}
