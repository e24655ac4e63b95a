package gibbs

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/vote"
)

// exactCases are the networks and hidden-value counts of the oracle
// tests.
var exactCases = []struct {
	id      string
	missing int
}{{"BN7", 2}, {"BN7", 3}, {"BN8", 2}, {"BN2", 3}}

// hideValues returns n tuples sampled from inst, each with missing
// randomly chosen values hidden.
func hideValues(inst *bn.Instance, rng *rand.Rand, n, missing int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		tu := inst.Sample(rng)
		for _, a := range rng.Perm(len(tu))[:missing] {
			tu[a] = relation.Missing
		}
		out[i] = tu
	}
	return out
}

// TestChainWithinMonteCarloErrorOfExact: on tuples the exact tier solves,
// every joint outcome of the served chain's estimate lies within five
// Monte Carlo standard errors of the exact mass, plus the smoothing
// margin. The standard error takes its effective sample size from the
// chain's own indicator trace for that outcome, and the larger of the
// exact and the estimated Bernoulli variance: an outcome of mass 2e-5
// that the chain happens to visit once in 800 sweeps is not judged by a
// variance that assumes it almost never can.
func TestChainWithinMonteCarloErrorOfExact(t *testing.T) {
	cfg := Config{Samples: 800, BurnIn: 100, Method: bestAveraged(), Seed: 3}
	for _, c := range exactCases {
		m, inst, rng := learnBN(t, c.id, 4000, 37)
		for _, tu := range hideValues(inst, rng, 8, c.missing) {
			exact, ok, err := Stationary(m, cfg, tu)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			est, trace := tracedChain(t, m, cfg, tu)
			margin := float64(exact.Size())*dist.SmoothFloor + 1e-9
			for x, p := range exact.P {
				ind := make([]float64, len(trace))
				for i, s := range trace {
					if s == x {
						ind[i] = 1
					}
				}
				q := est.P[x]
				se := math.Sqrt(max(p*(1-p), q*(1-q)) / effectiveSampleSize([][]float64{ind}))
				if d := math.Abs(est.P[x] - p); d > 5*se+margin {
					t.Errorf("%s k=%d %v outcome %d: chain %.5f, exact %.5f, |diff| %.5f > 5·SE %.5f + %.2g",
						c.id, c.missing, tu, x, est.P[x], p, d, 5*se, margin)
				}
			}
		}
	}
}

// tracedChain runs InferIndependent's chain for tu and also returns the
// joint outcome index of every recorded sweep.
func tracedChain(t *testing.T, m *core.Model, cfg Config, tu relation.Tuple) (*dist.Joint, []int) {
	t.Helper()
	sub := cfg
	sub.Seed = tupleSeed(cfg.Seed, tu)
	s, err := New(m, sub)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.newAccumulator(tu)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.newChain(tu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.burnIn(); i++ {
		if err := s.sweep(c); err != nil {
			t.Fatal(err)
		}
	}
	trace := make([]int, cfg.Samples)
	for i := range trace {
		if err := s.sweep(c); err != nil {
			t.Fatal(err)
		}
		acc.record(c.state)
		trace[i] = acc.joint.Index(acc.vals)
	}
	est := acc.finish()
	want, _, err := InferIndependent(m, cfg, tu)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(est, want) {
		t.Fatalf("traced chain for %v differs from InferIndependent", tu)
	}
	return est, trace
}

// TestInferRule: Infer answers exactly when the kernel needs no more
// local CPDs than the chain draws and its power iteration converges, and
// otherwise returns InferIndependent's chain bit for bit.
func TestInferRule(t *testing.T) {
	m, inst, rng := learnBN(t, "BN7", 4000, 41)
	cfg := Config{Samples: 800, BurnIn: 100, Method: bestAveraged(), Seed: 9}
	for _, tu := range hideValues(inst, rng, 6, 3) {
		j, points, exact, err := Infer(m, cfg, tu)
		if err != nil {
			t.Fatal(err)
		}
		want, ok, err := Stationary(m, cfg, tu)
		if err != nil {
			t.Fatal(err)
		}
		if !exact || points != 0 || !ok || !reflect.DeepEqual(j, want) {
			t.Errorf("%v: exact=%v points=%d, want the converged exact answer", tu, exact, points)
		}
	}

	// Two sweeps draw 6 CPDs; a kernel over three attributes of at least
	// two values each needs at least 12.
	tight := Config{Samples: 1, BurnIn: 1, Method: bestAveraged(), Seed: 9}
	for _, tu := range hideValues(inst, rng, 4, 3) {
		if exactCPDs(m, tu, 2*3) {
			t.Fatalf("%v: rule admits a kernel above the chain's draws", tu)
		}
		j, points, exact, err := Infer(m, tight, tu)
		if err != nil {
			t.Fatal(err)
		}
		want, wantPoints, err := InferIndependent(m, tight, tu)
		if err != nil {
			t.Fatal(err)
		}
		if exact || points != wantPoints || !reflect.DeepEqual(j, want) {
			t.Errorf("%v: exact=%v points=%d, want the chain's %d points", tu, exact, points, wantPoints)
		}
	}
}

// TestExactCPDsCountsKernelCPDs pins the rule's arithmetic, Σ_i S/c_i
// against the budget, and its overflow guard.
func TestExactCPDsCountsKernelCPDs(t *testing.T) {
	top, err := bn.ByID("BN2") // cardinalities 2, 4, 5, 5, 7
	if err != nil {
		t.Fatal(err)
	}
	m := &core.Model{Schema: top.Schema()}
	tu := relation.Tuple{relation.Missing, relation.Missing, relation.Missing, 0, 0}
	// 2×4×5 = 40 states: 20 + 10 + 8 = 38 CPDs.
	if !exactCPDs(m, tu, 38) || exactCPDs(m, tu, 37) {
		t.Errorf("rule boundary is not at 38 CPDs")
	}
	all := relation.Tuple{relation.Missing, relation.Missing, relation.Missing, relation.Missing, relation.Missing}
	if exactCPDs(m, all, 100) {
		t.Errorf("rule admits a 1,400-state kernel on a 100-CPD budget")
	}
}

// TestInferExactIsCacheIndependent: the exact tier reads its CPDs from
// the shared cache when one is set, and answers bit-identically with a
// cold, warm or always-evicting cache, or none.
func TestInferExactIsCacheIndependent(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 3000, 43)
	cfg := Config{Samples: 200, BurnIn: 20, Method: bestAveraged(), Seed: 2}
	tuples := hideValues(inst, rng, 6, 2)
	run := func(cfg Config) []*dist.Joint {
		var out []*dist.Joint
		for _, tu := range tuples {
			j, _, exact, err := Infer(m, cfg, tu)
			if err != nil || !exact {
				t.Fatalf("Infer(%v) = exact %v, %v", tu, exact, err)
			}
			out = append(out, j)
		}
		return out
	}
	want := run(cfg)
	shared := cfg
	shared.Cache = NewCPDCache(0)
	for _, pass := range []string{"cold", "warm"} {
		if got := run(shared); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s shared cache changed exact answers", pass)
		}
	}
	if st := shared.Cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("shared cache stats %+v: the solver did not go through it", st)
	}
	tiny := cfg
	tiny.Cache = NewCPDCache(cpdShards)
	if got := run(tiny); !reflect.DeepEqual(got, want) {
		t.Fatal("always-evicting cache changed exact answers")
	}
}

// TestInferFiresChainFaultPoints: an exact answer passes the same fault
// points a chain does, so chaos runs and deadline tests reach them on
// either tier.
func TestInferFiresChainFaultPoints(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 3000, 47)
	cfg := Config{Samples: 200, BurnIn: 20, Method: bestAveraged()}
	tu := hideValues(inst, rng, 1, 2)[0]
	for _, point := range []string{"gibbs.chain", "gibbs.sweep"} {
		if err := faultinject.Configure(point + "=panic/1"); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if _, ok := recover().(faultinject.Panic); !ok {
					t.Errorf("%s did not fire on the exact tier", point)
				}
			}()
			Infer(m, cfg, tu)
		}()
	}
	faultinject.Disable()
	if _, _, exact, err := Infer(m, cfg, tu); err != nil || !exact {
		t.Fatalf("fixture tuple is not on the exact tier: %v", err)
	}
}

// TestFamilyMatchesPerContextVote holds the family vote to the vote of
// each completed state, on BN7, BN2 and BN10 with 2–4 values hidden, for
// every missing attribute, every context and all eight voting methods:
// the family's voters are AppendMatches's on the completed state, its
// CPD is bit-identical to vote.InferScratch's, and so is newKernel's
// table entry for that context.
func TestFamilyMatchesPerContextVote(t *testing.T) {
	var methods []vote.Method
	for _, choice := range []core.VoterChoice{core.AllVoters, core.BestVoters} {
		for _, scheme := range []vote.Scheme{vote.Averaged, vote.Weighted, vote.Median, vote.LogPool} {
			methods = append(methods, vote.Method{Choice: choice, Scheme: scheme})
		}
	}
	var family, single core.MatchScratch
	var familyVote, singleVote vote.Scratch
	checks := 0
	for _, id := range []string{"BN7", "BN2", "BN10"} {
		m, inst, rng := learnBN(t, id, 4000, 53)
		for missing := 2; missing <= 4; missing++ {
			for _, tu := range hideValues(inst, rng, 4, missing) {
				for _, method := range methods {
					k, err := newKernel(m, Config{Samples: 1, Method: method}, tu)
					if err != nil {
						t.Fatal(err)
					}
					for i, attr := range k.joint.Attrs {
						var free []int
						for _, a := range k.joint.Attrs {
							if a != attr {
								free = append(free, a)
							}
						}
						l := m.Lattices[attr]
						l.PrepareFamily(tu, free, &family)
						if err := familyVote.PrepareFamily(m, tu, attr, free); err != nil {
							t.Fatal(err)
						}
						ctx := make([]int, len(free))
						state := tu.Clone()
						for c, entry := range k.tables[i] {
							rem := c
							for f := len(free) - 1; f >= 0; f-- {
								card := m.Schema.Attrs[free[f]].Card()
								ctx[f], rem = rem%card, rem/card
								state[free[f]] = ctx[f]
							}
							want := l.AppendMatches(nil, state, method.Choice, &single)
							if got := family.AppendContext(nil, ctx, method.Choice); !slices.Equal(got, want) {
								t.Fatalf("%s %v attribute %d context %v %v: family voters %v, want %v",
									id, tu, attr, ctx, method, got, want)
							}
							wantCPD, err := vote.InferScratch(m, state, attr, method, &singleVote)
							if err != nil {
								t.Fatal(err)
							}
							gotCPD, err := familyVote.InferContext(ctx, method)
							if err != nil {
								t.Fatal(err)
							}
							if !sameBits(gotCPD, wantCPD) || !sameBits(entry, wantCPD) {
								t.Fatalf("%s %v attribute %d context %v %v: family CPD %v, kernel %v, want %v",
									id, tu, attr, ctx, method, gotCPD, entry, wantCPD)
							}
							checks++
						}
					}
				}
			}
		}
	}
	t.Logf("%d (context, method) checks", checks)
}

// sameBits reports whether a and b hold bit-identical probabilities.
func sameBits(a, b dist.Dist) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStationaryColdAllocs pins the allocations of an exact solve with no
// CPD cache, a BN7 tuple with 3 of its 10 values hidden, at the 68 it
// took when each of its 43 local CPDs matched the lattice on its own. The
// solve's families share one pooled scratch; one allocated per solve
// costs about 40 more.
func TestStationaryColdAllocs(t *testing.T) {
	m, inst, rng := learnBN(t, "BN7", 4000, 7)
	tu := hideValues(inst, rng, 1, 3)[0]
	cfg := Config{Samples: 800, BurnIn: 100, Method: bestAveraged()}
	solve := func() {
		if _, ok, err := Stationary(m, cfg, tu); err != nil || !ok {
			t.Fatalf("Stationary(%v) = ok %v, %v", tu, ok, err)
		}
	}
	// The least of ten single runs: under the race detector sync.Pool
	// drops a quarter of its Puts, charging a scratch to runs that
	// pooling serves otherwise.
	least := math.Inf(1)
	for i := 0; i < 10; i++ {
		least = math.Min(least, testing.AllocsPerRun(1, solve))
	}
	if least > 68 {
		t.Errorf("cold exact solve allocates %.0f times, want at most 68", least)
	}
}
