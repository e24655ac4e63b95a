package experiment

// Adversarial query workloads: relations built to stress the adaptive
// query layer where benign dirty data does not. Three ingredients, each
// targeting one adaptive mechanism:
//
//   - Skewed damage frequencies (Zipf over a small pattern pool): a few
//     evidence patterns dominate the relation, so shared caches — and
//     the cross-query envelope-interval cache in particular — see the
//     duplicate mass real dirty data has, while the long tail keeps
//     cold misses in play.
//   - Correlated damage (attribute pairs always blanked together): the
//     multi-missing tuples concentrate on a few missing-attribute
//     combinations, which is exactly when dissociation envelopes are
//     informative and mid-query re-planning has candidates to cut.
//   - Over-budget blocks (tuples missing all but one attribute): the
//     widest envelopes the schema allows, each enumerating every
//     assignment of the tuple's other missing attributes (2^4 = 16
//     states per envelope on the 6-binary-attribute BN9 bench model,
//     well inside the enumeration cap).

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/relation"
)

// AdversarialConfig shapes one adversarial workload. The zero value is
// invalid; DefaultAdversarial supplies sensible proportions.
type AdversarialConfig struct {
	// Seed drives all randomness; equal configs build identical relations.
	Seed int64
	// Size is the total tuple count.
	Size int
	// Patterns is the number of distinct damage patterns behind the
	// incomplete tuples; duplication follows a Zipf law over their rank.
	Patterns int
	// SkewExp is the Zipf exponent over pattern ranks (0 = uniform; 1 is
	// the classic heavy skew).
	SkewExp float64
	// CorrelatedPairs is how many attribute pairs are damaged together:
	// each pattern blanks one full pair (plus occasionally a third
	// attribute), never a lone attribute of a pair.
	CorrelatedPairs int
	// OverBudgetFrac is the fraction of tuples missing every attribute
	// but one: the widest per-attribute envelopes the schema allows.
	OverBudgetFrac float64
	// CompleteFrac is the fraction of complete pass-through tuples.
	CompleteFrac float64
}

// DefaultAdversarial is the standard adversarial mix used by the
// adaptive benchmarks: heavily skewed, pair-correlated, with a 10%
// over-budget share.
func DefaultAdversarial(seed int64, size int) AdversarialConfig {
	return AdversarialConfig{
		Seed: seed, Size: size, Patterns: 24, SkewExp: 1.1,
		CorrelatedPairs: 3, OverBudgetFrac: 0.1, CompleteFrac: 0.2,
	}
}

// BuildAdversarialRelation assembles an adversarial relation over
// schema, drawing complete value combinations from src (typically a
// sample of the model's distribution, so the damage sits on realistic
// evidence). The construction is deterministic in cfg.
func BuildAdversarialRelation(schema *relation.Schema, src []relation.Tuple, cfg AdversarialConfig) (*relation.Relation, error) {
	if cfg.Size <= 0 || cfg.Patterns <= 0 {
		return nil, fmt.Errorf("experiment: adversarial config needs positive Size and Patterns")
	}
	if len(src) == 0 {
		return nil, fmt.Errorf("experiment: adversarial workload needs source tuples")
	}
	nAttrs := schema.NumAttrs()
	if nAttrs < 3 {
		return nil, fmt.Errorf("experiment: adversarial workload needs at least 3 attributes, got %d", nAttrs)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Correlated attribute pairs, damaged as units.
	pairs := make([][2]int, 0, cfg.CorrelatedPairs)
	for len(pairs) < cfg.CorrelatedPairs {
		p := rng.Perm(nAttrs)
		pairs = append(pairs, [2]int{p[0], p[1]})
	}

	// The damage-pattern pool. Each pattern is a concrete source tuple
	// with a correlated pair (or a random pair when none are configured)
	// blanked; every third pattern loses one extra attribute so the
	// missing-set diversity stays non-trivial.
	patterns := make([]relation.Tuple, cfg.Patterns)
	for i := range patterns {
		tu := src[rng.Intn(len(src))].Clone()
		var a, b int
		if len(pairs) > 0 {
			pr := pairs[i%len(pairs)]
			a, b = pr[0], pr[1]
		} else {
			p := rng.Perm(nAttrs)
			a, b = p[0], p[1]
		}
		tu[a], tu[b] = relation.Missing, relation.Missing
		if i%3 == 2 {
			for _, x := range rng.Perm(nAttrs) {
				if x != a && x != b {
					tu[x] = relation.Missing
					break
				}
			}
		}
		patterns[i] = tu
	}

	// Zipf cumulative weights over pattern rank.
	cum := make([]float64, len(patterns))
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), cfg.SkewExp)
		cum[i] = total
	}
	pick := func() relation.Tuple {
		x := rng.Float64() * total
		for i, c := range cum {
			if x <= c {
				return patterns[i]
			}
		}
		return patterns[len(patterns)-1]
	}

	rel := relation.NewRelation(schema)
	for i := 0; i < cfg.Size; i++ {
		var tu relation.Tuple
		r := rng.Float64()
		switch {
		case r < cfg.CompleteFrac:
			tu = src[rng.Intn(len(src))].Clone()
		case r < cfg.CompleteFrac+cfg.OverBudgetFrac:
			// Over-budget block: every attribute missing but one.
			tu = src[rng.Intn(len(src))].Clone()
			keep := rng.Intn(nAttrs)
			for a := range tu {
				if a != keep {
					tu[a] = relation.Missing
				}
			}
		default:
			tu = pick().Clone()
		}
		if err := rel.Append(tu); err != nil {
			return nil, err
		}
	}
	return rel, nil
}
