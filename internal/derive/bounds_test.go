package derive

// Property tests for the dissociation bound engine: for random models,
// evidence patterns, and satisfying sets, the probability the
// derive-everything path assigns to "every missing attribute completes
// into its satisfying set" must lie within BoundCPD's [lo, hi] — across
// worker counts and cache bounds, including an always-evicting cache.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/pdb"
	"repro/internal/relation"
	"repro/internal/vote"
)

// randomSat draws satisfying sets over the missing attributes of t:
// each missing attribute is constrained with probability 1/2, and each
// of a constrained attribute's values satisfies with probability 1/2
// (empty and full sets included — both must stay sound).
func randomSat(rng *rand.Rand, t relation.Tuple, cards []int) [][]bool {
	sat := make([][]bool, len(t))
	for _, a := range t.MissingAttrs() {
		if rng.Intn(2) == 0 {
			continue
		}
		set := make([]bool, cards[a])
		for v := range set {
			set[v] = rng.Intn(2) == 0
		}
		sat[a] = set
	}
	return sat
}

// oracleMass is the derive-everything reference: the mass of the block's
// alternatives whose values fall inside every constrained satisfying
// set, summed in block order exactly as the query executor folds it.
func oracleMass(b *pdb.Block, sat [][]bool) float64 {
	var s float64
	for _, alt := range b.Alts {
		ok := true
		for a, set := range sat {
			if set != nil && !set[alt.Tuple[a]] {
				ok = false
				break
			}
		}
		if ok {
			s += alt.Prob
		}
	}
	return s
}

// TestBoundCPDSoundness: the core property of the bound engine. Random
// multi-missing tuples and random satisfying sets, checked on engines
// with worker counts {1, 2, 8} and cache bounds {unbounded,
// always-evicting}: the derived block's satisfying mass is always inside
// the interval, and the interval is a sane sub-range of [0, 1].
func TestBoundCPDSoundness(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		m, inst, rng := learnBN(t, "BN8", 4000, seed)
		cards := m.Schema.Cards()
		nAttrs := m.Schema.NumAttrs()

		var tuples []relation.Tuple
		for i := 0; i < 24; i++ {
			tu := inst.Sample(rng)
			k := 2 + rng.Intn(2)
			for _, a := range rng.Perm(nAttrs)[:k] {
				tu[a] = relation.Missing
			}
			tuples = append(tuples, tu)
		}

		type combo struct {
			workers, cacheEntries int
			mixed                 bool // single-missing vote method != Gibbs local-CPD method
		}
		combos := []combo{{1, 0, false}, {2, 0, false}, {8, 0, false}, {2, 1, false}, {2, 0, true}}
		for _, cb := range combos {
			voteMethod := bestAveraged()
			if cb.mixed {
				// The envelope must bracket the chains' CPD family even
				// when the engine votes single-missing tuples differently.
				voteMethod = vote.Method{Choice: core.AllVoters, Scheme: vote.Weighted}
			}
			eng, err := New(m, Config{
				Method:       voteMethod,
				Gibbs:        gibbs.Config{Samples: 200, BurnIn: 20, Method: bestAveraged(), Seed: seed},
				Workers:      cb.workers,
				CacheEntries: cb.cacheEntries,
			})
			if err != nil {
				t.Fatal(err)
			}
			satRng := rand.New(rand.NewSource(seed * 31))
			for _, tu := range tuples {
				for trial := 0; trial < 3; trial++ {
					sat := randomSat(satRng, tu, cards)
					iv, _, err := eng.BoundCPD(tu, sat)
					if err != nil {
						t.Fatal(err)
					}
					if !(iv.Lo >= 0 && iv.Lo <= iv.Hi && iv.Hi <= probCeiling) {
						t.Fatalf("workers=%d cache=%d: malformed interval %+v for %v",
							cb.workers, cb.cacheEntries, iv, tu)
					}
					b, _, err := eng.ResolveBlock(context.Background(), tu, nil)
					if err != nil {
						t.Fatal(err)
					}
					p := oracleMass(b, sat)
					if p < iv.Lo || p > iv.Hi {
						t.Fatalf("workers=%d cache=%d: oracle mass %v escapes bound [%v, %v] for %v sat %v",
							cb.workers, cb.cacheEntries, p, iv.Lo, iv.Hi, tu, sat)
					}
				}
			}
			if st := eng.Stats(); st.EnvelopeMisses == 0 {
				t.Fatalf("workers=%d cache=%d: no intervals computed: %+v", cb.workers, cb.cacheEntries, st)
			}
		}
	}
}

// TestEnvelopeContainsExactMarginals holds boundEnvelope to the exact
// tier with no concentration slack: every marginal of an exactly solved
// block is a mixture of the local CPDs the envelope enumerates, so each
// value's mass must lie in [lo, hi] widened only by the smoothing margin
// jointSize·SmoothFloor + 1e-9.
func TestEnvelopeContainsExactMarginals(t *testing.T) {
	for _, c := range []struct {
		id      string
		missing int
	}{{"BN7", 2}, {"BN7", 3}, {"BN8", 2}, {"BN2", 3}} {
		m, inst, rng := learnBN(t, c.id, 4000, 13)
		eng, err := New(m, Config{Method: bestAveraged(), Gibbs: gibbs.Config{Samples: 800, BurnIn: 100, Method: bestAveraged()}})
		if err != nil {
			t.Fatal(err)
		}
		solved, worst := 0, 0.0
		for i := 0; i < 15; i++ {
			tu := inst.Sample(rng)
			for _, a := range rng.Perm(len(tu))[:c.missing] {
				tu[a] = relation.Missing
			}
			j, _, exact, err := gibbs.Infer(m, eng.cfg.Gibbs, tu)
			if err != nil {
				t.Fatal(err)
			}
			if !exact {
				continue
			}
			solved++
			margin := float64(j.Size())*dist.SmoothFloor + 1e-9
			for _, a := range tu.MissingAttrs() {
				lo, hi, err := eng.boundEnvelope(tu, a)
				if err != nil || lo == nil {
					t.Fatalf("envelope of %v attribute %d: %v", tu, a, err)
				}
				marg, err := j.Marginal(a)
				if err != nil {
					t.Fatal(err)
				}
				for v, p := range marg {
					worst = math.Max(worst, math.Max(lo[v]-p, p-hi[v]))
					if p < lo[v]-margin || p > hi[v]+margin {
						t.Errorf("%s %v attribute %d value %d: exact mass %v escapes [%v, %v] ± %.2g",
							c.id, tu, a, v, p, lo[v], hi[v], margin)
					}
				}
			}
		}
		if solved == 0 {
			t.Fatalf("%s k=%d: no tuple on the exact tier", c.id, c.missing)
		}
		t.Logf("%s k=%d: %d exact tuples, worst raw escape %.2g", c.id, c.missing, solved, worst)
	}
}

// TestBoundCPDInformative: on a chains engine with a healthy sample
// count, selective satisfying sets must yield genuinely non-vacuous
// intervals — otherwise the bound engine prunes nothing and the planner
// degenerates to derive-everything.
func TestBoundCPDInformative(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 4000, 9)
	cards := m.Schema.Cards()
	eng, err := New(m, Config{
		Method:  bestAveraged(),
		Gibbs:   gibbs.Config{Samples: 800, BurnIn: 50, Method: bestAveraged(), Seed: 9},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	nAttrs := m.Schema.NumAttrs()
	informative := 0
	for i := 0; i < 16; i++ {
		tu := inst.Sample(rng)
		a1, a2 := rng.Perm(nAttrs)[0], 0
		for _, a := range rng.Perm(nAttrs) {
			if a != a1 {
				a2 = a
				break
			}
		}
		tu[a1], tu[a2] = relation.Missing, relation.Missing
		// A single-value equality predicate on one open attribute.
		sat := make([][]bool, nAttrs)
		sat[a1] = make([]bool, cards[a1])
		sat[a1][rng.Intn(cards[a1])] = true
		iv, _, err := eng.BoundCPD(tu, sat)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Vacuous() {
			informative++
		}
	}
	if informative == 0 {
		t.Fatal("no equality predicate produced a non-vacuous interval at 800 samples")
	}
}

// TestBoundCPDGates: the bound engine degrades to the vacuous interval —
// never an error — on an engine whose blocks it cannot soundly bracket
// (one capping block alternatives), and rejects tuples it is not meant
// for.
func TestBoundCPDGates(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 21)
	tu := inst.Sample(rng)
	tu[0], tu[1] = relation.Missing, relation.Missing
	sat := make([][]bool, m.Schema.NumAttrs())
	sat[0] = make([]bool, m.Schema.Attrs[0].Card())
	sat[0][0] = true

	gibbsCfg := gibbs.Config{Samples: 50, BurnIn: 5, Method: bestAveraged(), Seed: 1}
	capped, err := New(m, Config{Method: bestAveraged(), Gibbs: gibbsCfg, Workers: 2, MaxAlternatives: 2})
	if err != nil {
		t.Fatal(err)
	}
	if iv, _, err := capped.BoundCPD(tu, sat); err != nil || !iv.Vacuous() {
		t.Fatalf("capped engine: interval %+v err %v, want vacuous and nil", iv, err)
	}

	chains, err := New(m, Config{Method: bestAveraged(), Gibbs: gibbsCfg, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	single := inst.Sample(rng)
	single[0] = relation.Missing
	if _, _, err := chains.BoundCPD(single, sat); err == nil {
		t.Fatal("single-missing tuple should be rejected")
	}

	// Interval memoization: a second identical call must be served from
	// the shared CPD cache, bit-identically.
	first, hit, err := chains.BoundCPD(tu, sat)
	if err != nil || hit {
		t.Fatalf("first BoundCPD: hit %v err %v, want a computed miss", hit, err)
	}
	before := chains.Stats()
	second, hit, err := chains.BoundCPD(tu, sat)
	if err != nil {
		t.Fatal(err)
	}
	after := chains.Stats()
	if !hit || second != first {
		t.Fatalf("second BoundCPD: %+v hit %v, want the memoized %+v", second, hit, first)
	}
	if after.EnvelopeHits != before.EnvelopeHits+1 || after.EnvelopeMisses != before.EnvelopeMisses {
		t.Fatalf("second BoundCPD recomputed the interval: %+v -> %+v", before, after)
	}
}
