package experiment

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/baseline"
	"repro/internal/bn"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/relation"
	"repro/internal/vote"
)

func defaultMethod() vote.Method {
	return vote.Method{Choice: core.BestVoters, Scheme: vote.Averaged}
}

// Fig10Point is one observation of multi-attribute accuracy: KL at a given
// sample budget and number of missing attributes for one network
// (Fig. 10).
type Fig10Point struct {
	Network        string
	NumMissing     int
	SamplesPerTupl int
	KL             float64
	Top1           float64
	// KLExact is the mean KL(truth ‖ exact) of the (network, missing)
	// group: the N → ∞ asymptote of KL, where exact is the stationary
	// distribution of each tuple's chain kernel (gibbs.Stationary).
	KLExact float64
	// KLExactChain is the mean KL(exact ‖ chain) at this N: the chain's
	// sampling error measured against its own target.
	KLExactChain float64
	// Solved counts the tuples behind the two exact columns: those whose
	// power iteration converged within the largest N's sweep count.
	Solved int
}

// RunFig10 reproduces Fig. 10: prediction accuracy of sampling-based
// multi-attribute inference as a function of samples per tuple, for 2..5
// missing attributes, per network. The paper plots BN8, BN17, and BN2.
// Beside the paper's KL to the truth it reports the exact answer the
// chains converge to: KL(truth ‖ exact) per (network, missing), and
// KL(exact ‖ chain) per N.
func RunFig10(opt Options, networks []string, maxMissing int) ([]Fig10Point, *Table, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if len(networks) == 0 {
		networks = []string{"BN8", "BN17", "BN2"}
	}
	var points []Fig10Point
	for _, id := range networks {
		top, err := bn.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		limit := maxMissing
		if limit <= 0 || limit >= top.NumAttrs() {
			limit = top.NumAttrs() - 1
		}
		if limit > 5 {
			limit = 5 // the paper plots at most 5 missing attributes
		}
		env, err := MakeEnv(top, opt, 0, 0, opt.TrainSize)
		if err != nil {
			return nil, nil, err
		}
		m, err := env.Learn(opt.Support, opt.MaxItemsets)
		if err != nil {
			return nil, nil, err
		}
		for missing := 2; missing <= limit; missing++ {
			rng := rand.New(rand.NewSource(seedFor(opt.Seed, "fig10:"+id, missing)))
			workload := env.TestWorkload(rng, min(opt.TestCount, 40), missing)
			exact, klExact, err := exactJoints(env, m, opt, workload)
			if err != nil {
				return nil, nil, err
			}
			for _, n := range opt.GibbsSampleCounts {
				cfg := gibbs.Config{
					Samples: n,
					BurnIn:  opt.GibbsBurnIn,
					Method:  defaultMethod(),
					Seed:    seedFor(opt.Seed, "fig10rng:"+id, missing, n),
				}
				s, err := gibbs.New(m, cfg)
				if err != nil {
					return nil, nil, err
				}
				res, err := s.TupleAtATime(workload)
				if err != nil {
					return nil, nil, err
				}
				acc, err := evalJoint(env, res.Tuples, res.Dists)
				if err != nil {
					return nil, nil, err
				}
				var klChain Accuracy
				for i, tu := range res.Tuples {
					if want := exact[tu.Key()]; want != nil {
						kl, err := dist.KLJoint(want, res.Dists[i])
						if err != nil {
							return nil, nil, err
						}
						klChain.add(kl, false)
					}
				}
				klChain.finish()
				points = append(points, Fig10Point{
					Network:        id,
					NumMissing:     missing,
					SamplesPerTupl: n,
					KL:             acc.KL,
					Top1:           acc.Top1,
					KLExact:        klExact,
					KLExactChain:   klChain.KL,
					Solved:         klChain.N,
				})
				opt.logf("fig10: %s missing=%d N=%d KL=%.3f KL(exact||chain)=%.3f", id, missing, n, acc.KL, klChain.KL)
			}
		}
	}
	t := &Table{
		Title: "Fig 10: multi-attribute inference accuracy vs samples per tuple",
		Header: []string{"network", "missing", "samples/tuple", "KL", "top-1",
			"KL(truth||exact)", "KL(exact||chain)", "solved"},
	}
	for _, p := range points {
		t.AddRow(p.Network, p.NumMissing, p.SamplesPerTupl, p.KL, p.Top1, p.KLExact, p.KLExactChain, p.Solved)
	}
	return points, t, nil
}

// exactJoints solves every distinct workload tuple exactly, keyed by
// tuple key, with the sweep budget of Fig 10's largest N; a tuple whose
// power iteration has not converged by then maps to nil. It also returns
// the solved tuples' mean KL(truth ‖ exact).
func exactJoints(env *Env, m *core.Model, opt Options, workload []relation.Tuple) (map[string]*dist.Joint, float64, error) {
	cfg := gibbs.Config{Samples: slices.Max(opt.GibbsSampleCounts), BurnIn: opt.GibbsBurnIn, Method: defaultMethod()}
	out := make(map[string]*dist.Joint)
	var acc Accuracy
	for _, tu := range workload {
		if _, done := out[tu.Key()]; done {
			continue
		}
		j, ok, err := gibbs.Stationary(m, cfg, tu)
		if err != nil {
			return nil, 0, err
		}
		out[tu.Key()] = j
		if !ok {
			continue
		}
		truth, err := env.Inst.Conditional(tu)
		if err != nil {
			return nil, 0, err
		}
		kl, err := dist.KLJoint(truth, j)
		if err != nil {
			return nil, 0, err
		}
		acc.add(kl, false)
	}
	acc.finish()
	return out, acc.KL, nil
}

// Fig11Point is one efficiency observation: total sampled points and wall
// time for a workload under one strategy (Fig. 11).
type Fig11Point struct {
	Network      string
	WorkloadSize int
	Strategy     string // "tuple-at-a-time" or "tuple-DAG"
	Points       int
	WallSec      float64
}

// RunFig11 reproduces Fig. 11: sampling cost (total sampled points and wall
// time) as a function of workload size, with and without the tuple-DAG
// optimization. Each workload tuple has 1..(attrs-1) missing values, as in
// the paper ("at most networkSize-1 attributes were missing").
func RunFig11(opt Options, networks []string) ([]Fig11Point, *Table, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if len(networks) == 0 {
		networks = MultiInferenceNetworks
	}
	// The paper samples 500 points per tuple in the plotted runs.
	samples := opt.GibbsSamples
	var points []Fig11Point
	for _, id := range networks {
		top, err := bn.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		env, err := MakeEnv(top, opt, 0, 0, opt.TrainSize)
		if err != nil {
			return nil, nil, err
		}
		m, err := env.Learn(opt.Support, opt.MaxItemsets)
		if err != nil {
			return nil, nil, err
		}
		for _, wsize := range opt.WorkloadSizes {
			rng := rand.New(rand.NewSource(seedFor(opt.Seed, "fig11:"+id, wsize)))
			workload := buildMixedWorkload(env, rng, wsize)
			for _, strategy := range []string{"tuple-at-a-time", "tuple-DAG"} {
				s, err := gibbs.New(m, gibbs.Config{
					Samples: samples,
					BurnIn:  opt.GibbsBurnIn,
					Method:  defaultMethod(),
					Seed:    seedFor(opt.Seed, "fig11rng:"+id+strategy, wsize),
				})
				if err != nil {
					return nil, nil, err
				}
				start := time.Now()
				var res *gibbs.Result
				if strategy == "tuple-DAG" {
					res, err = s.TupleDAGRun(workload)
				} else {
					res, err = s.TupleAtATime(workload)
				}
				if err != nil {
					return nil, nil, err
				}
				points = append(points, Fig11Point{
					Network:      id,
					WorkloadSize: wsize,
					Strategy:     strategy,
					Points:       res.PointsSampled,
					WallSec:      time.Since(start).Seconds(),
				})
				opt.logf("fig11: %s wl=%d %s points=%d", id, wsize, strategy, res.PointsSampled)
			}
		}
	}
	t := &Table{
		Title:  fmt.Sprintf("Fig 11: sampling cost vs workload size (N=%d per tuple)", samples),
		Header: []string{"network", "workload", "strategy", "sampled points", "time (s)"},
	}
	for _, p := range points {
		t.AddRow(p.Network, p.WorkloadSize, p.Strategy, p.Points, p.WallSec)
	}
	return points, t, nil
}

// buildMixedWorkload hides a uniform 1..(attrs-1) attributes per tuple,
// recycling test tuples if the requested size exceeds the test set.
func buildMixedWorkload(env *Env, rng *rand.Rand, size int) []relation.Tuple {
	nAttrs := env.Top.NumAttrs()
	out := make([]relation.Tuple, size)
	for i := 0; i < size; i++ {
		tu := env.Test[i%len(env.Test)].Clone()
		k := 1 + rng.Intn(nAttrs-1)
		for _, a := range rng.Perm(nAttrs)[:k] {
			tu[a] = relation.Missing
		}
		out[i] = tu
	}
	return out
}

// AblationPoint compares joint Gibbs inference with the
// independence-assuming product baseline on the same workload.
type AblationPoint struct {
	Network string
	KLGibbs float64
	KLProd  float64
}

// RunAblationIndependent quantifies the motivating claim of Section V: how
// much accuracy the independence assumption costs relative to joint Gibbs
// inference, on tuples with two missing attributes.
func RunAblationIndependent(opt Options, networks []string) ([]AblationPoint, *Table, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if len(networks) == 0 {
		networks = []string{"BN8", "BN13", "BN17"}
	}
	var points []AblationPoint
	for _, id := range networks {
		top, err := bn.ByID(id)
		if err != nil {
			return nil, nil, err
		}
		env, err := MakeEnv(top, opt, 0, 0, opt.TrainSize)
		if err != nil {
			return nil, nil, err
		}
		m, err := env.Learn(opt.Support, opt.MaxItemsets)
		if err != nil {
			return nil, nil, err
		}
		rng := rand.New(rand.NewSource(seedFor(opt.Seed, "abl:"+id)))
		workload := env.TestWorkload(rng, min(opt.TestCount, 40), 2)
		cfg := gibbs.Config{
			Samples: opt.GibbsSamples,
			BurnIn:  opt.GibbsBurnIn,
			Method:  defaultMethod(),
			Seed:    seedFor(opt.Seed, "ablrng:"+id),
		}
		gibbsAcc, err := evalGibbsTuples(env, m, cfg, workload)
		if err != nil {
			return nil, nil, err
		}
		var prodAcc Accuracy
		for _, tu := range workload {
			j, err := baseline.IndependentProduct(m, tu, defaultMethod())
			if err != nil {
				return nil, nil, err
			}
			truth, err := env.Inst.Conditional(tu)
			if err != nil {
				return nil, nil, err
			}
			kl, err := dist.KLJoint(truth, j)
			if err != nil {
				return nil, nil, err
			}
			top1, err := dist.Top1Match(truth.P, j.P)
			if err != nil {
				return nil, nil, err
			}
			prodAcc.add(kl, top1)
		}
		prodAcc.finish()
		points = append(points, AblationPoint{Network: id, KLGibbs: gibbsAcc.KL, KLProd: prodAcc.KL})
		opt.logf("ablation-indep: %s gibbs=%.3f product=%.3f", id, gibbsAcc.KL, prodAcc.KL)
	}
	t := &Table{
		Title:  "Ablation: joint Gibbs vs independence-assuming product (2 missing attrs)",
		Header: []string{"network", "KL (Gibbs)", "KL (independent product)"},
	}
	for _, p := range points {
		t.AddRow(p.Network, p.KLGibbs, p.KLProd)
	}
	return points, t, nil
}
