package derive

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// These tests arm the global fault-injection switchboard, so none of
// them may run in parallel with anything else in the package (no test
// here calls t.Parallel, which keeps them serialized).

// faultFixture builds a workload guaranteed to exercise both resolution
// paths: the dirty mix plus one forced single-missing and one forced
// double-missing tuple.
func faultFixture(t *testing.T, seed int64) (*core.Model, *relation.Relation) {
	t.Helper()
	m, inst, rng := learnBN(t, "BN8", 2000, seed)
	rel := dirtyRelation(t, inst, rng, 60)
	single := inst.Sample(rng)
	single[0] = relation.Missing
	double := inst.Sample(rng)
	double[0], double[1] = relation.Missing, relation.Missing
	for _, tu := range []relation.Tuple{single, double} {
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return m, rel
}

// TestPanicBecomesTypedError: a panic inside a single-flight inference
// computation surfaces as a *PanicError on that request, is counted, and
// leaves the engine fully serviceable — the very same engine then
// reproduces the fault-free oracle bit for bit.
func TestPanicBecomesTypedError(t *testing.T) {
	m, rel := faultFixture(t, 71)
	oracle := deriveWith(t, m, rel, 4)

	for _, tc := range []struct{ point, op string }{
		{"derive.vote", "vote"},
		{"derive.chain", "chain"},
	} {
		t.Run(tc.point, func(t *testing.T) {
			e, err := New(m, engineConfig(4))
			if err != nil {
				t.Fatal(err)
			}
			if err := faultinject.Configure(tc.point + "=panic/1"); err != nil {
				t.Fatal(err)
			}
			defer faultinject.Disable()

			_, err = deriveDB(e, rel)
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Derive under %s panic returned %v, want *PanicError", tc.point, err)
			}
			if pe.Op != tc.op {
				t.Errorf("PanicError.Op = %q, want %q", pe.Op, tc.op)
			}
			if _, ok := pe.Value.(faultinject.Panic); !ok {
				t.Errorf("PanicError.Value = %#v, want the injected faultinject.Panic", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Error("PanicError carries no stack")
			}
			if e.Stats().PanicsRecovered == 0 {
				t.Error("no panics counted as recovered")
			}

			// The poisoned slots were invalidated, never memoized: with the
			// fault disarmed the same engine answers exactly.
			faultinject.Disable()
			got, err := deriveDB(e, rel)
			if err != nil {
				t.Fatalf("engine unserviceable after recovered panics: %v", err)
			}
			requireIdentical(t, oracle, got, tc.point+" after recovery")
		})
	}
}

// TestPrefetchPanicKeepsStreamExact: a panic in the prefetch pool (before
// the worker claims a cache slot) costs only the warm-up — the emitter
// computes the tuple inline and the stream stays bit-identical to the
// fault-free run, with the panics recovered and counted.
func TestPrefetchPanicKeepsStreamExact(t *testing.T) {
	m, rel := faultFixture(t, 73)
	oracle := deriveWith(t, m, rel, 4)

	e, err := New(m, engineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure("derive.prefetch=panic/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	// Slow the emitter slightly so the prefetch pool demonstrably gets to
	// run (on a fast machine an unthrottled stream can finish before the
	// pool's dispatcher is even scheduled).
	got := pdb.NewDatabase(rel.Schema)
	err = e.Stream(context.Background(), rel, Pools{}, EmitFunc(func(it Item) error {
		time.Sleep(200 * time.Microsecond)
		if it.Certain() {
			return got.AddCertain(it.Tuple)
		}
		return got.AddBlock(it.Block)
	}))
	if err != nil {
		t.Fatalf("prefetch panics must not fail the stream: %v", err)
	}
	requireIdentical(t, oracle, got, "every prefetch panicking")
	if e.Stats().PanicsRecovered == 0 {
		t.Error("prefetch panics were not counted")
	}
}

// streamInput is one source a stream can run over.
type streamInput struct {
	name string
	src  Source
}

// streamInputs are rel and rel registered as a dataset and snapshotted
// (no observations, so both emit the same items).
func streamInputs(t *testing.T, e *Engine, rel *relation.Relation) []streamInput {
	t.Helper()
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ds.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return []streamInput{{"relation", rel}, {"snapshot", snap}}
}

// TestSinkPanicBecomesEmitError: a panic in the caller's emit path (a
// broken sink) is this request's *PanicError with Op "emit", on the
// relation stream and the snapshot stream alike; the engine survives and
// re-streams exactly.
func TestSinkPanicBecomesEmitError(t *testing.T) {
	m, rel := faultFixture(t, 79)
	oracle := deriveWith(t, m, rel, 4)

	e, err := New(m, engineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range streamInputs(t, e, rel) {
		t.Run(in.name, func(t *testing.T) {
			before := e.Stats().PanicsRecovered
			emitted := 0
			err := e.Stream(context.Background(), in.src, Pools{}, EmitFunc(func(Item) error {
				emitted++
				if emitted == 3 {
					panic("sink exploded")
				}
				return nil
			}))
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Op != "emit" {
				t.Fatalf("stream with panicking sink returned %v, want *PanicError{Op: emit}", err)
			}
			if got := e.Stats().PanicsRecovered - before; got != 1 {
				t.Errorf("PanicsRecovered moved by %d, want 1", got)
			}
			streamed := pdb.NewDatabase(rel.Schema)
			err = e.Stream(context.Background(), in.src, Pools{}, EmitFunc(func(it Item) error {
				if it.Certain() {
					return streamed.AddCertain(it.Tuple)
				}
				return streamed.AddBlock(it.Block)
			}))
			if err != nil {
				t.Fatalf("engine unserviceable after emit panic: %v", err)
			}
			requireIdentical(t, oracle, streamed, "re-stream after emit panic")
		})
	}
}

// TestStreamDeadlineCounted: a stream cut short by its deadline counts
// in Stats.Streams and Stats.DeadlineMisses, and is observed in
// mrsl_derive_sink_seconds and as the request trace's derive.stream span
// — over a relation and a snapshot, into an EmitFunc and into a
// JSONLSink alike.
func TestStreamDeadlineCounted(t *testing.T) {
	m, rel := faultFixture(t, 81)
	e, err := New(m, engineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range streamInputs(t, e, rel) {
		for _, toSink := range []bool{false, true} {
			name := in.name + "/emit"
			if toSink {
				name = in.name + "/sink"
			}
			t.Run(name, func(t *testing.T) {
				tr := obs.NewTrace()
				ctx, cancel := context.WithDeadline(obs.WithTrace(context.Background(), tr), time.Now().Add(-time.Second))
				defer cancel()
				before := e.Stats()
				sinks := sinkStreamSeconds.Count()
				emitted := 0
				if toSink {
					var out bytes.Buffer
					err = e.Stream(ctx, in.src, Pools{}, NewJSONLSink(&out, rel.Schema))
					emitted = out.Len()
				} else {
					err = e.Stream(ctx, in.src, Pools{}, EmitFunc(func(Item) error { emitted++; return nil }))
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("stream under an expired deadline returned %v, want DeadlineExceeded", err)
				}
				if emitted != 0 {
					t.Errorf("a stream cut before its first item emitted output")
				}
				after := e.Stats()
				if d := after.Streams - before.Streams; d != 1 {
					t.Errorf("Streams moved by %d, want 1", d)
				}
				if d := after.DeadlineMisses - before.DeadlineMisses; d != 1 {
					t.Errorf("DeadlineMisses moved by %d, want 1", d)
				}
				if d := sinkStreamSeconds.Count() - sinks; d != 1 {
					t.Errorf("mrsl_derive_sink_seconds observed %d streams, want 1", d)
				}
				if spans := tr.Spans(); len(spans) != 1 || spans[0].Name != "derive.stream" {
					t.Errorf("trace spans = %v, want one derive.stream span", spans)
				}
			})
		}
	}
}
