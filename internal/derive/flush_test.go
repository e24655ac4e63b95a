package derive

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/relation"
)

// flushRecorder is the writer under a JSONLSink in the flush-rule tests.
// It counts the lines written, and each Flush records that count with
// the value probe reports at that moment.
type flushRecorder struct {
	lines   int
	probe   func() int64
	flushes []flushAt
	err     error // returned by every Flush
}

type flushAt struct {
	lines int
	probe int64
}

func (r *flushRecorder) Write(p []byte) (int, error) {
	r.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func (r *flushRecorder) Flush() error {
	at := flushAt{lines: r.lines}
	if r.probe != nil {
		at.probe = r.probe()
	}
	r.flushes = append(r.flushes, at)
	return r.err
}

// TestAllHitStreamFlushesTwice: when every vote and chain is a cache hit,
// a stream flushes once after its first item and once at Close — the
// relation stream and the snapshot stream alike.
func TestAllHitStreamFlushesTwice(t *testing.T) {
	e, rel := matchmakingEngine(t)
	if _, err := deriveDB(e, rel); err != nil { // warms every vote and chain
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		stream func(Sink) error
	}{
		{"relation", func(s Sink) error { return e.Stream(context.Background(), rel, Pools{}, s) }},
		{"snapshot", snapshotStream(t, e, rel)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &flushRecorder{}
			if err := tc.stream(NewJSONLSink(rec, rel.Schema)); err != nil {
				t.Fatal(err)
			}
			want := []flushAt{{lines: 2}, {lines: rel.Len() + 1}}
			if len(rec.flushes) != len(want) || rec.flushes[0] != want[0] || rec.flushes[1] != want[1] {
				t.Errorf("flushes at %v lines, want %v (schema + item 0, then everything at Close)", rec.flushes, want)
			}
		})
	}
}

// TestFlushBeforeSlowChain: with the derive.chain fault slowing the
// multi-missing item k, the stream flushes items 0..k-1 before that
// chain returns, whether the emitter computes the chain itself or waits
// on another goroutine's, on the relation stream and the snapshot stream:
// a ready line never waits in a buffer while the engine works.
func TestFlushBeforeSlowChain(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 83)
	const k = 5
	rel := relation.NewRelation(inst.Top.Schema())
	for i := 0; i < k; i++ {
		if err := rel.Append(inst.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	multi := inst.Sample(rng)
	multi[0], multi[1] = relation.Missing, relation.Missing
	if err := rel.Append(multi); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	for _, tc := range []struct {
		name   string
		cfg    Config
		faults string
		// claim, when set, starts item k's chain on another goroutine
		// before the stream, so the emitter finds it in flight.
		claim bool
		// snapshot streams a registered dataset's snapshot of rel.
		snapshot bool
	}{
		// Every prefetch panics before it claims, so the emitter
		// computes the chain inline.
		{"chains/inline", engineConfig(2), "derive.chain=sleep:200ms/1,derive.prefetch=panic/1", false, false},
		{"chains/wait", engineConfig(2), "derive.chain=sleep:200ms/1", true, false},
		{"snapshot/chains", engineConfig(2), "derive.chain=sleep:200ms/1,derive.prefetch=panic/1", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := faultinject.Configure(tc.faults); err != nil {
				t.Fatal(err)
			}
			e, err := New(m, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			claimed := make(chan error, 1)
			if tc.claim {
				go func() {
					_, _, err := e.ResolveBlock(context.Background(), multi, nil)
					claimed <- err
				}()
				// The lookup that claims the slot counts the tuple served.
				for e.Stats().MultiTuples == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			stream := func(s Sink) error { return e.Stream(context.Background(), rel, Pools{}, s) }
			if tc.snapshot {
				stream = snapshotStream(t, e, rel)
			}
			rec := &flushRecorder{probe: func() int64 { return e.Stats().GibbsComputed }}
			if err := stream(NewJSONLSink(rec, rel.Schema)); err != nil {
				t.Fatal(err)
			}
			if tc.claim {
				if err := <-claimed; err != nil {
					t.Fatal(err)
				}
			}
			early := false
			for _, f := range rec.flushes {
				early = early || f.lines == k+1 && f.probe == 0
			}
			if !early {
				t.Errorf("flushes (lines, chains done) = %v: none carried the %d items before the slow chain while it ran", rec.flushes, k)
			}
			if last := rec.flushes[len(rec.flushes)-1]; last.lines != rel.Len()+1 || last.probe != 1 {
				t.Errorf("last flush = %v, want every line after the chain", last)
			}
		})
	}
}

// neverFires arms derive.prefetch with a period no test reaches, so
// faultinject.Arrivals counts the prefetch items a stream dispatches.
const neverFires = "derive.prefetch=panic/1000000000"

// TestAllHitStreamStartsNoPool: a stream whose every vote and chain is a
// cache hit starts no prefetch pool, so no prefetch item arrives — the
// relation stream and the snapshot stream alike.
func TestAllHitStreamStartsNoPool(t *testing.T) {
	e, rel := matchmakingEngine(t)
	if _, err := deriveDB(e, rel); err != nil { // warms every vote and chain
		t.Fatal(err)
	}
	defer faultinject.Disable()
	for _, tc := range []struct {
		name   string
		stream func(Sink) error
	}{
		{"relation", func(s Sink) error { return e.Stream(context.Background(), rel, Pools{}, s) }},
		{"snapshot", snapshotStream(t, e, rel)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := faultinject.Configure(neverFires); err != nil {
				t.Fatal(err)
			}
			// A slow emitter gives a pool, had one started, time to
			// dispatch its items.
			slow := EmitFunc(func(Item) error {
				time.Sleep(200 * time.Microsecond)
				return nil
			})
			if err := tc.stream(slow); err != nil {
				t.Fatal(err)
			}
			if n := faultinject.Arrivals("derive.prefetch"); n != 0 {
				t.Errorf("an all-hit stream dispatched %d prefetch items, want none", n)
			}
		})
	}
}

// TestPoolStartsAtFirstMiss: a stream whose first uncached tuple is item
// k starts its prefetch pool there, over the tuples after k only, and
// emits the same bytes as a stream on cold caches.
func TestPoolStartsAtFirstMiss(t *testing.T) {
	e, rel := matchmakingEngine(t)
	const k = 9 // t10; the incomplete tuples before it are items 0, 2, 4 and 7
	after := make(map[string]bool)
	for i, tu := range rel.Tuples {
		switch {
		case tu.IsComplete():
		case i < k:
			if _, _, err := e.ResolveBlock(context.Background(), tu, nil); err != nil {
				t.Fatal(err)
			}
		case i > k:
			after[tu.Key()] = true
		}
	}
	if err := faultinject.Configure(neverFires); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	var buf bytes.Buffer
	if err := e.Stream(context.Background(), rel, Pools{}, NewJSONLSink(&buf, rel.Schema)); err != nil {
		t.Fatal(err)
	}
	if n := faultinject.Arrivals("derive.prefetch"); n > uint64(len(after)) {
		t.Errorf("%d prefetch items, want at most the %d distinct incomplete tuples after item %d", n, len(after), k)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "matchmaking_derived.jsonl.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stream differs from the golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestPrefetchBlocksStartsAtFirstMiss: a worklist the block cache holds
// starts no pool and never calls idle, so even with every prefetch item
// armed to panic none arrives and no panic is recovered. One uncached
// tuple in the middle of the list starts the pool there, the pool
// computes it, and idle is called once.
func TestPrefetchBlocksStartsAtFirstMiss(t *testing.T) {
	ctx := context.Background()
	calls := 0
	idle := func() error { calls++; return nil }
	defer faultinject.Disable()

	e, rel := matchmakingEngine(t)
	if _, err := deriveDB(e, rel); err != nil { // warms every vote and chain
		t.Fatal(err)
	}
	if err := faultinject.Configure("derive.prefetch=panic/1"); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().PanicsRecovered
	if err := e.PrefetchBlocks(ctx, rel.Tuples, Pools{}, idle); err != nil {
		t.Fatal(err)
	}
	if n, p := faultinject.Arrivals("derive.prefetch"), e.Stats().PanicsRecovered-before; calls != 0 || n != 0 || p != 0 {
		t.Errorf("a cached worklist called idle %d times, dispatched %d prefetch items and recovered %d panics; want none", calls, n, p)
	}
	faultinject.Disable()

	e, _ = matchmakingEngine(t)
	var incomplete []int
	for i, tu := range rel.Tuples {
		if !tu.IsComplete() {
			incomplete = append(incomplete, i)
		}
	}
	mid := incomplete[len(incomplete)/2]
	key := rel.Tuples[mid].Key()
	fromMid := map[string]bool{} // the distinct incomplete tuples from mid on
	for _, i := range incomplete {
		k := rel.Tuples[i].Key()
		if i >= mid {
			fromMid[k] = true
		}
		if k == key {
			continue
		}
		if _, _, err := e.ResolveBlock(ctx, rel.Tuples[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := faultinject.Configure(neverFires); err != nil {
		t.Fatal(err)
	}
	calls = 0
	st := e.Stats()
	computed := st.VotesComputed + st.GibbsComputed
	if err := e.PrefetchBlocks(ctx, rel.Tuples, Pools{}, idle); err != nil {
		t.Fatal(err)
	}
	if n := faultinject.Arrivals("derive.prefetch"); n == 0 || n > uint64(len(fromMid)) {
		t.Errorf("%d prefetch items, want 1 to the %d distinct incomplete tuples from item %d on", n, len(fromMid), mid)
	}
	if calls != 1 {
		t.Errorf("a worklist with one uncached tuple called idle %d times, want 1", calls)
	}
	st = e.Stats()
	if n := st.VotesComputed + st.GibbsComputed - computed; n != 1 {
		t.Errorf("the prefetch computed %d blocks, want the 1 uncached", n)
	}
	if _, hit, err := e.ResolveBlock(ctx, rel.Tuples[mid], nil); err != nil || !hit {
		t.Errorf("ResolveBlock of the uncached tuple after the prefetch: hit %v, %v; want a cache hit", hit, err)
	}
}

// TestResolveBlockHitAllocs: a ResolveBlock served from the block cache
// allocates nothing, for single- and multi-missing tuples alike.
func TestResolveBlockHitAllocs(t *testing.T) {
	e, rel := matchmakingEngine(t)
	if _, err := deriveDB(e, rel); err != nil { // warms every vote and chain
		t.Fatal(err)
	}
	ctx := context.Background()
	idle := func() error { return nil }
	for i, tu := range rel.Tuples {
		if tu.IsComplete() {
			continue
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, hit, err := e.ResolveBlock(ctx, tu, idle); err != nil || !hit {
				t.Fatalf("ResolveBlock of tuple %d: hit %v, %v; want a cache hit", i, hit, err)
			}
		})
		if allocs != 0 {
			t.Errorf("a cache hit on tuple %d (%d missing) allocates %v times, want 0", i, tu.NumMissing(), allocs)
		}
	}
}

// snapshotStream registers rel as a dataset on e and returns a stream of
// its snapshot into a sink.
func snapshotStream(t *testing.T, e *Engine, rel *relation.Relation) func(Sink) error {
	t.Helper()
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ds.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return func(s Sink) error { return e.Stream(context.Background(), snap, Pools{}, s) }
}

// stalledFlush is the writer under a JSONLSink whose client stops
// reading: its second and third Flush report on entered, then block
// until released.
type stalledFlush struct {
	n                 int
	entered, released chan struct{}
}

func (w *stalledFlush) Write(p []byte) (int, error) { return len(p), nil }

func (w *stalledFlush) Flush() error {
	w.n++
	if w.n == 2 || w.n == 3 {
		w.entered <- struct{}{}
		<-w.released
	}
	return nil
}

// TestStalledFlushHoldsNoClaim: a stream flushes before it claims the
// cache slot of an item it computes inline, so while its Flush blocks
// (a client that stopped reading), other requests for the same
// single-missing and multi-missing evidence patterns compute them
// instead of waiting on the stalled stream — on the relation stream and
// the snapshot stream.
func TestStalledFlushHoldsNoClaim(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 89)
	single, multi := inst.Sample(rng), inst.Sample(rng)
	single[0] = relation.Missing
	multi[0], multi[1] = relation.Missing, relation.Missing
	// Flush 1 follows item 0; flushes 2 and 3 precede the inline vote of
	// single and the inline chain of multi, each with a line pending.
	rel := relation.NewRelation(inst.Top.Schema())
	for _, tu := range []relation.Tuple{inst.Sample(rng), inst.Sample(rng), single, inst.Sample(rng), multi} {
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	// Every prefetch panics before it claims, so the stream claims both.
	if err := faultinject.Configure("derive.prefetch=panic/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	for _, snapshot := range []bool{false, true} {
		name := "relation"
		if snapshot {
			name = "snapshot"
		}
		t.Run(name, func(t *testing.T) {
			e, err := New(m, engineConfig(2))
			if err != nil {
				t.Fatal(err)
			}
			stream := func(s Sink) error { return e.Stream(context.Background(), rel, Pools{}, s) }
			if snapshot {
				stream = snapshotStream(t, e, rel)
			}
			w := &stalledFlush{entered: make(chan struct{}), released: make(chan struct{})}
			done := make(chan error, 1)
			go func() { done <- stream(NewJSONLSink(w, rel.Schema)) }()
			for _, tu := range []relation.Tuple{single, multi} {
				select {
				case <-w.entered:
				case <-time.After(10 * time.Second):
					t.Fatalf("no flush before the inline computation of %v", tu)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, _, err := e.ResolveBlock(ctx, tu, nil)
				cancel()
				if err != nil {
					t.Errorf("ResolveBlock(%v) while the stream's flush is stalled: %v", tu, err)
				}
				w.released <- struct{}{}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFlushErrorStopsStream: an error from the sink's Flush ends the
// stream with that error, and the sink is not closed.
func TestFlushErrorStopsStream(t *testing.T) {
	e, rel := matchmakingEngine(t)
	boom := errors.New("client gone")
	rec := &flushRecorder{err: boom}
	if err := e.Stream(context.Background(), rel, Pools{}, NewJSONLSink(rec, rel.Schema)); !errors.Is(err, boom) {
		t.Fatalf("Stream = %v, want the flush error", err)
	}
	if len(rec.flushes) != 1 || rec.lines != 2 {
		t.Errorf("after a failed first flush: %d flushes, %d lines; want 1 flush, schema + item 0", len(rec.flushes), rec.lines)
	}
}
