package core

// Tests and benchmarks for the lattice-native matcher. The seed
// implementation — 2^k sub-assignment enumeration plus a pairwise
// most-specific scan — is kept here as the reference oracle: the property
// tests check the Hasse-diagram traversal agrees with it rule for rule on
// random lattices and tuples, and the benchmarks compare the two at
// several evidence widths.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/rules"
)

// refMatchSubset is the seed's matchIndices: enumerate every
// sub-assignment of t's evidence (excluding the head attribute) and look
// each up as a rule body.
func refMatchSubset(l *MRSL, t relation.Tuple) []int {
	evidence := make([]int, 0, len(t))
	for a, v := range t {
		if a != l.Attr && v != relation.Missing {
			evidence = append(evidence, a)
		}
	}
	var out []int
	sub := relation.NewTuple(len(t))
	var buf []byte
	n := len(evidence)
	for mask := 0; mask < (1 << n); mask++ {
		for i := range sub {
			sub[i] = relation.Missing
		}
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				sub[evidence[b]] = t[evidence[b]]
			}
		}
		buf = sub.AppendKey(buf[:0])
		if idx, ok := l.byBody[string(buf)]; ok {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// refMatchScan is the seed's wide-schema fallback: test every rule body
// directly.
func refMatchScan(l *MRSL, t relation.Tuple) []int {
	var out []int
	for i, m := range l.Rules {
		if m.Matches(t) {
			out = append(out, i)
		}
	}
	return out
}

// refMostSpecific is the seed's pairwise most-specific filter.
func refMostSpecific(l *MRSL, idxs []int) []int {
	var out []int
	for _, i := range idxs {
		keep := true
		for _, j := range idxs {
			if i != j && l.Rules[i].Subsumes(l.Rules[j]) {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// randomLattice builds an MRSL over numAttrs attributes with the given
// cards, from nBodies random bodies (plus the mandatory top-level rule).
func randomLattice(t testing.TB, rng *rand.Rand, attr, numAttrs, nBodies int, cards []int) *MRSL {
	seen := map[string]bool{}
	var metas []*rules.MetaRule
	add := func(body relation.Tuple) {
		k := body.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		metas = append(metas, &rules.MetaRule{
			HeadAttr: attr,
			Body:     body,
			BodySize: body.NumKnown(),
			CPD:      dist.New(cards[attr]),
			Weight:   rng.Float64(),
			NumRules: 1,
		})
	}
	add(relation.NewTuple(numAttrs)) // top-level rule
	for b := 0; b < nBodies; b++ {
		body := relation.NewTuple(numAttrs)
		size := 1 + rng.Intn(numAttrs-1)
		for _, a := range rng.Perm(numAttrs)[:size] {
			if a == attr {
				continue
			}
			body[a] = rng.Intn(cards[a])
		}
		if body.NumKnown() == 0 {
			continue
		}
		add(body)
	}
	l, err := newMRSL(attr, cards[attr], metas)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// randomMatchTuple draws a tuple with a random mix of known and missing
// values (the head attribute may be either).
func randomMatchTuple(rng *rand.Rand, numAttrs int, cards []int) relation.Tuple {
	tu := relation.NewTuple(numAttrs)
	for a := 0; a < numAttrs; a++ {
		if rng.Float64() < 0.7 {
			tu[a] = rng.Intn(cards[a])
		}
	}
	return tu
}

// TestAppendMatchesAgreesWithSubsetEnumeration is the property test: on
// random lattices and tuples, the lattice traversal returns exactly the
// seed's subset-enumeration (and linear-scan) results, for both voter
// choices, in the same order — and so does a family of each tuple with
// up to three of its missing attributes free, in every context.
func TestAppendMatchesAgreesWithSubsetEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var scratch MatchScratch // shared across lattices on purpose
	for trial := 0; trial < 150; trial++ {
		numAttrs := 3 + rng.Intn(8)
		cards := make([]int, numAttrs)
		for i := range cards {
			cards[i] = 2 + rng.Intn(3)
		}
		attr := rng.Intn(numAttrs)
		l := randomLattice(t, rng, attr, numAttrs, 1+rng.Intn(60), cards)
		for tr := 0; tr < 20; tr++ {
			tu := randomMatchTuple(rng, numAttrs, cards)
			wantAll := refMatchSubset(l, tu)
			if scan := refMatchScan(l, tu); !equalInts(wantAll, scan) {
				t.Fatalf("reference implementations disagree: %v vs %v", wantAll, scan)
			}
			gotAll := l.AppendMatches(nil, tu, AllVoters, &scratch)
			if !equalInts(gotAll, wantAll) {
				t.Fatalf("trial %d: AppendMatches(all) = %v, want %v\nlattice=%d rules, tuple=%v",
					trial, gotAll, wantAll, l.Len(), tu)
			}
			wantBest := refMostSpecific(l, wantAll)
			gotBest := l.AppendMatches(nil, tu, BestVoters, &scratch)
			if !equalInts(gotBest, wantBest) {
				t.Fatalf("trial %d: AppendMatches(best) = %v, want %v\nlattice=%d rules, tuple=%v",
					trial, gotBest, wantBest, l.Len(), tu)
			}
			checkFamily(t, l, tu, rng.Perm(numAttrs)[:rng.Intn(4)], cards, &scratch)
		}
	}
}

// checkFamily holds the family of tu with the given attributes free
// (those tu leaves missing, other than the head) to the linear scan of
// tu completed by each context, for both voter choices.
func checkFamily(t *testing.T, l *MRSL, tu relation.Tuple, attrs []int, cards []int, s *MatchScratch) {
	t.Helper()
	var free []int
	for _, a := range attrs {
		if a != l.Attr && tu[a] == relation.Missing {
			free = append(free, a)
		}
	}
	l.PrepareFamily(tu, free, s)
	contexts := 1
	for _, a := range free {
		contexts *= cards[a]
	}
	ctx := make([]int, len(free))
	state := tu.Clone()
	for n := 0; n < contexts; n++ {
		rem := n
		for f := len(free) - 1; f >= 0; f-- {
			ctx[f] = rem % cards[free[f]]
			rem /= cards[free[f]]
			state[free[f]] = ctx[f]
		}
		wantAll := refMatchScan(l, state)
		if got := s.AppendContext(nil, ctx, AllVoters); !equalInts(got, wantAll) {
			t.Fatalf("family of %v free %v context %v: all = %v, want %v", tu, free, ctx, got, wantAll)
		}
		wantBest := refMostSpecific(l, wantAll)
		if got := s.AppendContext(nil, ctx, BestVoters); !equalInts(got, wantBest) {
			t.Fatalf("family of %v free %v context %v: best = %v, want %v", tu, free, ctx, got, wantBest)
		}
	}
}

// TestMatchAgreesOnLearnedModel runs the same agreement check on a model
// learned from the paper's matchmaking example, rather than synthetic
// lattices.
func TestMatchAgreesOnLearnedModel(t *testing.T) {
	m, rc := learnPaperExample(t)
	rng := rand.New(rand.NewSource(7))
	var scratch MatchScratch
	for _, l := range m.Lattices {
		for trial := 0; trial < 50; trial++ {
			tu := rc.Tuples[rng.Intn(rc.Len())].Clone()
			for a := range tu {
				if rng.Float64() < 0.4 {
					tu[a] = relation.Missing
				}
			}
			wantAll := refMatchSubset(l, tu)
			if got := l.AppendMatches(nil, tu, AllVoters, &scratch); !equalInts(got, wantAll) {
				t.Fatalf("attr %d: all = %v, want %v (tuple %v)", l.Attr, got, wantAll, tu)
			}
			wantBest := refMostSpecific(l, wantAll)
			if got := l.AppendMatches(nil, tu, BestVoters, &scratch); !equalInts(got, wantBest) {
				t.Fatalf("attr %d: best = %v, want %v (tuple %v)", l.Attr, got, wantBest, tu)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendMatchesZeroAlloc pins the allocation-free guarantee of the
// match hot path: with a warmed scratch and adequate destination
// capacity, AppendMatches must not allocate for either voter choice.
func TestAppendMatchesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	numAttrs := 9
	cards := make([]int, numAttrs)
	for i := range cards {
		cards[i] = 3
	}
	l := randomLattice(t, rng, 0, numAttrs, 80, cards)
	tu := randomMatchTuple(rng, numAttrs, cards)
	var scratch MatchScratch
	dst := l.AppendMatches(nil, tu, AllVoters, &scratch) // warm scratch and dst
	for _, choice := range []VoterChoice{AllVoters, BestVoters} {
		choice := choice
		allocs := testing.AllocsPerRun(200, func() {
			dst = l.AppendMatches(dst[:0], tu, choice, &scratch)
		})
		if allocs != 0 {
			t.Errorf("AppendMatches(%v) allocates %.1f times per call, want 0", choice, allocs)
		}
	}
}

// benchLattice builds a dense-but-realistic lattice over k evidence
// attributes (head attribute 0): every 1-attribute body, every
// 2-attribute body, and a sample of 3-attribute bodies.
func benchLattice(b *testing.B, k int) (*MRSL, relation.Tuple) {
	b.Helper()
	numAttrs := k + 1
	const card = 3
	cards := make([]int, numAttrs)
	for i := range cards {
		cards[i] = card
	}
	rng := rand.New(rand.NewSource(int64(k)))
	seen := map[string]bool{}
	var metas []*rules.MetaRule
	add := func(body relation.Tuple) {
		if k := body.Key(); !seen[k] {
			seen[k] = true
			metas = append(metas, &rules.MetaRule{
				HeadAttr: 0, Body: body, BodySize: body.NumKnown(),
				CPD: dist.New(card), Weight: 1, NumRules: 1,
			})
		}
	}
	add(relation.NewTuple(numAttrs))
	for a := 1; a <= k; a++ {
		for v := 0; v < card; v++ {
			body := relation.NewTuple(numAttrs)
			body[a] = v
			add(body)
		}
	}
	for a := 1; a <= k; a++ {
		for c := a + 1; c <= k; c++ {
			for va := 0; va < card; va++ {
				for vc := 0; vc < card; vc++ {
					body := relation.NewTuple(numAttrs)
					body[a], body[c] = va, vc
					add(body)
				}
			}
		}
	}
	for i := 0; i < 5*k; i++ {
		body := relation.NewTuple(numAttrs)
		for _, a := range rng.Perm(k)[:3] {
			body[a+1] = rng.Intn(card)
		}
		add(body)
	}
	l, err := newMRSL(0, card, metas)
	if err != nil {
		b.Fatal(err)
	}
	tu := relation.NewTuple(numAttrs)
	for a := 1; a <= k; a++ {
		tu[a] = rng.Intn(card)
	}
	return l, tu
}

// BenchmarkMatchLattice measures the Hasse-diagram traversal at several
// evidence widths; BenchmarkMatchSubset measures the seed's 2^k subset
// enumeration on the same lattices and tuples. The traversal's cost
// follows the number of matching rules; the enumeration's doubles with
// every added evidence attribute.
func BenchmarkMatchLattice(b *testing.B) {
	for _, k := range []int{4, 6, 9, 12} {
		l, tu := benchLattice(b, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var scratch MatchScratch
			dst := l.AppendMatches(nil, tu, BestVoters, &scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = l.AppendMatches(dst[:0], tu, BestVoters, &scratch)
			}
			b.ReportMetric(float64(len(dst)), "matches")
		})
	}
}

func BenchmarkMatchSubset(b *testing.B) {
	for _, k := range []int{4, 6, 9, 12} {
		l, tu := benchLattice(b, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var idxs []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idxs = refMatchSubset(l, tu)
				idxs = refMostSpecific(l, idxs)
			}
			b.ReportMetric(float64(len(idxs)), "matches")
		})
	}
}
