package pdb

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/relation"
)

// TestObservePaperBlock conditions the paper's Delta_t12 block on
// inc = 50K: the surviving completions are t12.1 (0.30) and t12.2 (0.45),
// renormalized to 0.4 and 0.6.
func TestObservePaperBlock(t *testing.T) {
	b, s := paperBlock(t)
	inc := s.AttrIndex("inc")
	nb, err := b.Observe(inc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Alts) != 2 {
		t.Fatalf("alts = %d, want 2", len(nb.Alts))
	}
	if nb.Base[inc] != 0 {
		t.Errorf("base inc = %d, want 0", nb.Base[inc])
	}
	// Sorted descending: 0.6 (nw=500K) then 0.4 (nw=100K).
	if math.Abs(nb.Alts[0].Prob-0.6) > 1e-12 || math.Abs(nb.Alts[1].Prob-0.4) > 1e-12 {
		t.Errorf("posterior = %v, %v; want 0.6, 0.4", nb.Alts[0].Prob, nb.Alts[1].Prob)
	}
	// The original block is untouched.
	if len(b.Alts) != 4 {
		t.Error("Observe mutated the source block")
	}
}

func TestObserveValidation(t *testing.T) {
	b, s := paperBlock(t)
	if _, err := b.Observe(-1, 0); err == nil {
		t.Error("bad attribute should fail")
	}
	age := s.AttrIndex("age")
	// age is known (30 = code 1): observing the same value is a no-op that
	// returns an independent clone, never the (possibly shared) receiver...
	same, err := b.Observe(age, 1)
	if err != nil {
		t.Fatalf("observing known value: %v", err)
	}
	if same == b {
		t.Error("no-op observation returned the receiver instead of a clone")
	}
	if len(same.Alts) != len(b.Alts) {
		t.Fatalf("no-op clone has %d alts, want %d", len(same.Alts), len(b.Alts))
	}
	for i := range b.Alts {
		if !same.Alts[i].Tuple.Equal(b.Alts[i].Tuple) || same.Alts[i].Prob != b.Alts[i].Prob {
			t.Errorf("no-op clone alt %d = %v, want %v", i, same.Alts[i], b.Alts[i])
		}
		if &same.Alts[i].Tuple[0] == &b.Alts[i].Tuple[0] {
			t.Errorf("no-op clone alt %d shares tuple storage with the source", i)
		}
	}
	// ...but a conflicting one fails.
	if _, err := b.Observe(age, 0); err == nil {
		t.Error("conflicting observation should fail")
	}
}

func TestObserveZeroProbabilityValue(t *testing.T) {
	s := relation.MatchmakingSchema()
	_ = s
	m := relation.Missing
	base := relation.Tuple{1, 2, m, m}
	j, err := dist.NewJoint([]int{2, 3}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	// inc=100K carries all mass; observing inc=50K is impossible.
	j.P = dist.Dist{0, 0, 0.5, 0.5}
	b, err := NewBlock(base, j, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Observe(2, 0); err == nil {
		t.Error("zero-probability observation should fail")
	}
}

// TestObservePartialKeepsBlock: observing one of two missing attributes
// leaves a smaller, renormalized block.
func TestObservePartialKeepsBlock(t *testing.T) {
	b, s := paperBlock(t)
	nb, err := b.Observe(s.AttrIndex("inc"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Base.IsComplete() {
		t.Fatalf("one of two missing values observed, but the block collapsed: %v", nb.Base)
	}
	if math.Abs(nb.ProbSum()-1) > 1e-12 {
		t.Errorf("posterior not normalized: %v", nb.ProbSum())
	}
	// Original masses 0.10 (nw=100K) and 0.15 (nw=500K) -> 0.4 / 0.6.
	if math.Abs(nb.Prob(Eq(s.AttrIndex("nw"), 1))-0.6) > 1e-12 {
		t.Errorf("P(nw=500K | inc=100K) = %v, want 0.6", nb.Prob(Eq(s.AttrIndex("nw"), 1)))
	}
}

// TestObserveMatchesConditionalMath: conditioning a block equals dividing
// the selected mass by the marginal, for random distributions.
func TestObserveMatchesConditionalMath(t *testing.T) {
	s := relation.MatchmakingSchema()
	m := relation.Missing
	base := relation.Tuple{0, 0, m, m}
	j, err := dist.NewJoint([]int{2, 3}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	j.P = dist.Dist{0.1, 0.2, 0.3, 0.4}
	b, err := NewBlock(base, j, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.Observe(3, 0) // nw = 100K: masses 0.1 and 0.3
	if err != nil {
		t.Fatal(err)
	}
	incIdx := s.AttrIndex("inc")
	want := 0.3 / 0.4 // P(inc=100K | nw=100K)
	if got := nb.Prob(Eq(incIdx, 1)); math.Abs(got-want) > 1e-12 {
		t.Errorf("P(inc=100K|nw=100K) = %v, want %v", got, want)
	}
}

// snapshotBlock deep-copies a block's full observable state, so tests can
// assert a conditioning operation left the source bit-identical.
func snapshotBlock(b *Block) *Block {
	return b.Clone()
}

func requireBlocksIdentical(t *testing.T, label string, got, want *Block) {
	t.Helper()
	if !got.Base.Equal(want.Base) {
		t.Fatalf("%s: base mutated: %v, want %v", label, got.Base, want.Base)
	}
	if len(got.Alts) != len(want.Alts) {
		t.Fatalf("%s: alts mutated: %d, want %d", label, len(got.Alts), len(want.Alts))
	}
	for i := range want.Alts {
		if !got.Alts[i].Tuple.Equal(want.Alts[i].Tuple) || got.Alts[i].Prob != want.Alts[i].Prob {
			t.Fatalf("%s: alt %d mutated: %v, want %v", label, i, got.Alts[i], want.Alts[i])
		}
	}
}

// TestObserveNeverMutatesSource is the property test behind mutable
// datasets: for random blocks and random observation sequences, every
// conditioning step leaves the source block bit-identical, and no
// posterior shares tuple storage with it — a cached block conditioned by
// one dataset can never corrupt another.
func TestObserveNeverMutatesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := relation.MatchmakingSchema()
	cards := s.Cards()
	for trial := 0; trial < 200; trial++ {
		// Random base with 1-3 missing attributes.
		m := relation.Missing
		base := relation.NewTuple(len(cards))
		for a := range base {
			base[a] = rng.Intn(cards[a])
		}
		missing := rng.Perm(len(cards))[:1+rng.Intn(3)]
		for _, a := range missing {
			base[a] = m
		}
		sort.Ints(missing)
		cardsM := make([]int, len(missing))
		for i, a := range missing {
			cardsM[i] = cards[a]
		}
		j, err := dist.NewJoint(missing, cardsM)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := range j.P {
			j.P[i] = rng.Float64()
			sum += j.P[i]
		}
		for i := range j.P {
			j.P[i] /= sum
		}
		b, err := NewBlock(base, j, 0)
		if err != nil {
			t.Fatal(err)
		}
		cur := b
		for step := 0; len(cur.Base.MissingAttrs()) > 0 && step < 4; step++ {
			snap := snapshotBlock(cur)
			open := cur.Base.MissingAttrs()
			attr := open[rng.Intn(len(open))]
			// Pick a value with positive remaining mass from a random
			// surviving alternative, so the observation always succeeds.
			val := cur.Alts[rng.Intn(len(cur.Alts))].Tuple[attr]
			nb, err := cur.Observe(attr, val)
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			requireBlocksIdentical(t, "source after Observe", cur, snap)
			for i := range nb.Alts {
				for k := range cur.Alts {
					if len(nb.Alts[i].Tuple) > 0 && len(cur.Alts[k].Tuple) > 0 &&
						&nb.Alts[i].Tuple[0] == &cur.Alts[k].Tuple[0] {
						t.Fatalf("trial %d: posterior alt %d aliases source alt %d", trial, i, k)
					}
				}
			}
			if math.Abs(nb.ProbSum()-1) > 1e-9 {
				t.Fatalf("trial %d: posterior not normalized: %v", trial, nb.ProbSum())
			}
			cur = nb
		}
	}
}

// TestObserveDedupsEqualAlternatives: conditioning a hand-built block
// whose alternatives collide once the observed attribute stops
// distinguishing them merges the duplicates, summing their mass.
func TestObserveDedupsEqualAlternatives(t *testing.T) {
	m := relation.Missing
	base := relation.Tuple{0, m, m}
	b := &Block{Base: base.Clone(), Alts: []Alternative{
		{Tuple: relation.Tuple{0, 0, 0}, Prob: 0.5},
		{Tuple: relation.Tuple{0, 1, 0}, Prob: 0.3},
		{Tuple: relation.Tuple{0, 0, 1}, Prob: 0.1},
		{Tuple: relation.Tuple{0, 0, 0}, Prob: 0.1}, // duplicate of the first
	}}
	nb, err := b.Observe(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Alts) != 2 {
		t.Fatalf("alts = %d, want 2 (duplicates merged)", len(nb.Alts))
	}
	// Survivors: {0,0,0} with 0.5+0.1=0.6 and {0,0,1} with 0.1, over 0.7.
	if !nb.Alts[0].Tuple.Equal(relation.Tuple{0, 0, 0}) {
		t.Fatalf("first alt = %v", nb.Alts[0].Tuple)
	}
	if math.Abs(nb.Alts[0].Prob-0.6/0.7) > 1e-12 || math.Abs(nb.Alts[1].Prob-0.1/0.7) > 1e-12 {
		t.Errorf("posterior = %v, %v; want %v, %v", nb.Alts[0].Prob, nb.Alts[1].Prob, 0.6/0.7, 0.1/0.7)
	}
	// Final observation collapses to exactly one certain tuple, never a
	// duplicate-laden one.
	final, err := nb.Observe(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Alts) != 1 || final.Alts[0].Prob != 1 {
		t.Fatalf("collapsed block = %+v, want one certain alternative", final.Alts)
	}
}
