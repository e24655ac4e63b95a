package derive

import (
	"context"
	"errors"
	"testing"
)

// TestStreamContextCancelBeforeStart: an already-canceled context stops
// the stream before anything is emitted.
func TestStreamContextCancelBeforeStart(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 4000, 61)
	rel := dirtyRelation(t, inst, rng, 60)
	e, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emitted := 0
	err = e.Stream(ctx, rel, Pools{}, EmitFunc(func(Item) error {
		emitted++
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted != 0 {
		t.Errorf("canceled stream emitted %d items", emitted)
	}
}

// TestStreamContextCancelMidStream: canceling while the stream is being
// consumed stops emission early with ctx.Err(), and the engine survives
// to serve the full stream afterwards — cancellation never poisons the
// shared caches.
func TestStreamContextCancelMidStream(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 4000, 62)
	rel := dirtyRelation(t, inst, rng, 60)
	e, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	err = e.Stream(ctx, rel, Pools{}, EmitFunc(func(Item) error {
		emitted++
		if emitted == 5 {
			cancel()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted >= rel.Len() {
		t.Errorf("canceled stream emitted all %d items", emitted)
	}

	// The same engine still serves a complete, coherent stream.
	count := 0
	if err := e.Stream(context.Background(), rel, Pools{}, EmitFunc(func(Item) error { count++; return nil })); err != nil {
		t.Fatal(err)
	}
	if count != rel.Len() {
		t.Errorf("post-cancel stream emitted %d of %d items", count, rel.Len())
	}
}

// TestResolveBlockMatchesStream: the query evaluator's per-tuple entry
// point serves exactly the block a Stream over the same relation emits,
// from the same cache slots.
func TestResolveBlockMatchesStream(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 4000, 63)
	rel := dirtyRelation(t, inst, rng, 40)
	streamed, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := streamed.Stream(context.Background(), rel, Pools{}, EmitFunc(func(it Item) error {
		if it.Certain() {
			return nil
		}
		b, _, err := resolved.ResolveBlock(ctx, it.Tuple, nil)
		if err != nil {
			return err
		}
		if len(b.Alts) != len(it.Block.Alts) {
			t.Fatalf("ResolveBlock(%v): %d alternatives, want %d",
				it.Tuple, len(b.Alts), len(it.Block.Alts))
		}
		for k := range b.Alts {
			if b.Alts[k].Prob != it.Block.Alts[k].Prob ||
				!b.Alts[k].Tuple.Equal(it.Block.Alts[k].Tuple) {
				t.Fatalf("ResolveBlock(%v) alt %d differs from streamed block", it.Tuple, k)
			}
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}

	// Complete tuples are rejected.
	if _, _, err := resolved.ResolveBlock(ctx, inst.Sample(rng), nil); err == nil {
		t.Error("ResolveBlock on a complete tuple should fail")
	}
}
