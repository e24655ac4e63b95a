package gibbs

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/relation"
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
