package pdb

import (
	"fmt"

	"repro/internal/relation"
)

// Observation support: in interactive cleaning, a user (or a later data
// delivery) pins down one of a tuple's missing values. Conditioning the
// block on that observation is a Bayesian update within the block — the
// alternatives inconsistent with the observation drop out and the rest
// renormalize — and requires no re-inference.

// Clone returns a deep copy of the block: the base tuple, and every
// alternative's tuple, live on fresh storage. Conditioning paths hand the
// clone to callers that will hold (and possibly re-condition) the block
// long after the source — typically a shared, engine-cached block — must
// stay untouched.
func (b *Block) Clone() *Block {
	nb := &Block{Base: b.Base.Clone(), Alts: make([]Alternative, len(b.Alts))}
	backing := make(relation.Tuple, len(b.Alts)*len(b.Base))
	for i, a := range b.Alts {
		tu := backing[:len(a.Tuple):len(a.Tuple)]
		backing = backing[len(a.Tuple):]
		copy(tu, a.Tuple)
		nb.Alts[i] = Alternative{Tuple: tu, Prob: a.Prob}
	}
	return nb
}

// Observe returns a new block conditioned on attribute attr having value
// val. The base tuple's missing marker for attr is replaced by the
// observed value. Observing a value the block considers impossible (zero
// remaining mass) is an error: the model and the observation disagree.
//
// The returned block never shares storage with the receiver — not the
// base tuple, not the alternatives, not their tuples — and the receiver is
// never mutated, so a shared (engine-cached) block can be conditioned into
// any number of independently owned posteriors. This holds on the no-op
// path too (observing an already-known value returns a clone, not the
// receiver). Alternatives whose tuples become equal under conditioning are
// merged (probabilities summed, first-appearance order kept) before
// renormalizing, so a posterior block never carries duplicate completions.
func (b *Block) Observe(attr, val int) (*Block, error) {
	if attr < 0 || attr >= len(b.Base) {
		return nil, fmt.Errorf("pdb: attribute %d out of range", attr)
	}
	if b.Base[attr] != relation.Missing {
		if b.Base[attr] == val {
			// Observation agrees with a known value: a no-op, but callers
			// own the result, so it must not alias the (shared) receiver.
			return b.Clone(), nil
		}
		return nil, fmt.Errorf("pdb: observation %d conflicts with known value %d", val, b.Base[attr])
	}
	nb := &Block{Base: b.Base.Clone()}
	nb.Base[attr] = val
	for _, a := range b.Alts {
		if a.Tuple[attr] != val {
			continue
		}
		// Deep-copy the surviving completion: the source alternatives share
		// one backing array owned by the (possibly cached) source block.
		nb.Alts = append(nb.Alts, Alternative{Tuple: a.Tuple.Clone(), Prob: a.Prob})
	}
	if len(nb.Alts) == 0 {
		return nil, fmt.Errorf("pdb: observed value has zero probability in block for %v", b.Base)
	}
	nb.dedup()
	nb.renormalize()
	return nb, nil
}

// dedup merges alternatives with equal tuples, summing their probabilities
// into the first appearance. Blocks built by NewBlock never carry
// duplicates, but conditioning a hand-built block (AddBlock accepts any
// valid distribution) can make alternatives collide once the observed
// attribute no longer distinguishes them.
func (b *Block) dedup() {
	out := b.Alts[:0]
	for _, a := range b.Alts {
		merged := false
		for i := range out {
			if out[i].Tuple.Equal(a.Tuple) {
				out[i].Prob += a.Prob
				merged = true
				break
			}
		}
		if !merged {
			out = append(out, a)
		}
	}
	// Zero the dropped tail so merged-away alternatives are not pinned by
	// the backing array.
	for i := len(out); i < len(b.Alts); i++ {
		b.Alts[i] = Alternative{}
	}
	b.Alts = out
}
