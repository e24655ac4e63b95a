package gibbs_test

import (
	"math/rand"
	"testing"

	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/gibbs/gibbstest"
	"repro/internal/relation"
	"repro/internal/vote"
)

// TestStationaryMatchesDenseSolve holds the exact tier's power iteration
// to the dense linear solve of πK = π over the same voted CPDs, on the
// networks and hidden-value counts the served workloads use.
func TestStationaryMatchesDenseSolve(t *testing.T) {
	method := vote.Method{Choice: core.BestVoters, Scheme: vote.Averaged}
	cfg := gibbs.Config{Samples: 800, BurnIn: 100, Method: method}
	for _, c := range []struct {
		id      string
		missing int
	}{{"BN7", 2}, {"BN7", 3}, {"BN8", 2}, {"BN2", 3}} {
		rng := rand.New(rand.NewSource(31))
		top, err := bn.ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := bn.Instantiate(top, rng)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Learn(inst.SampleRelation(rng, 4000), core.Config{SupportThreshold: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		solved := 0
		for i := 0; i < 12; i++ {
			tu := inst.Sample(rng)
			for _, a := range rng.Perm(len(tu))[:c.missing] {
				tu[a] = relation.Missing
			}
			j, ok, err := gibbs.Stationary(m, cfg, tu)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			solved++
			want, err := gibbstest.Stationary(m, method, tu)
			if err != nil {
				t.Fatal(err)
			}
			want.Normalize().Smooth(dist.SmoothFloor)
			if l1, _ := dist.L1(want.P, j.P); l1 > 1e-10 {
				t.Errorf("%s k=%d %v: L1(dense, power iteration) = %.3g, want <= 1e-10", c.id, c.missing, tu, l1)
			}
		}
		if solved < 10 {
			t.Errorf("%s k=%d: only %d of 12 kernels converged", c.id, c.missing, solved)
		}
	}
}
