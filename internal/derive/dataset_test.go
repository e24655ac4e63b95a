package derive

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/pdb"
	"repro/internal/relation"
)

// observeScript builds a deterministic observation sequence over rel: for
// every k-th incomplete tuple, pin its first missing attribute to the most
// probable completion of its current conditioned block. Applying the same
// script to a live dataset and to a cold conditioned database must agree.
type scriptedObs struct {
	index, attr, val int
}

func scriptObservations(t *testing.T, e *Engine, rel *relation.Relation, every int) []scriptedObs {
	t.Helper()
	ctx := context.Background()
	var script []scriptedObs
	cur := make(map[int]*pdb.Block)
	n := 0
	for i, tu := range rel.Tuples {
		if tu.IsComplete() {
			continue
		}
		n++
		if n%every != 0 {
			continue
		}
		b, _, err := e.ResolveBlock(ctx, tu, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Two observations on multi-missing tuples, one otherwise:
		// exercises incremental conditioning and collapse alike.
		for steps := 0; steps < 2 && !b.Base.IsComplete(); steps++ {
			attr := b.Base.MissingAttrs()[0]
			val := b.Alts[0].Tuple[attr] // most probable completion
			script = append(script, scriptedObs{index: i, attr: attr, val: val})
			nb, err := b.Observe(attr, val)
			if err != nil {
				t.Fatal(err)
			}
			b = nb
		}
		cur[i] = b
	}
	if len(script) == 0 {
		t.Fatal("script is empty; fixture has no incomplete tuples")
	}
	return script
}

// conditionedOracle derives the conditioned database the hard way: a cold
// engine resolves every block, then the script is replayed through
// pdb.Block.Observe. This is the ground truth the live path must match
// bit-for-bit.
func conditionedOracle(t *testing.T, m *core.Model, cfg Config, rel *relation.Relation, script []scriptedObs) []Item {
	t.Helper()
	cold, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	blocks := make(map[int]*pdb.Block)
	for _, o := range script {
		b, ok := blocks[o.index]
		if !ok {
			if b, _, err = cold.ResolveBlock(ctx, rel.Tuples[o.index], nil); err != nil {
				t.Fatal(err)
			}
		}
		if b, err = b.Observe(o.attr, o.val); err != nil {
			t.Fatal(err)
		}
		blocks[o.index] = b
	}
	var items []Item
	for i, tu := range rel.Tuples {
		if b, ok := blocks[i]; ok {
			if b.Base.IsComplete() {
				items = append(items, Item{Index: i, Tuple: b.Base})
			} else {
				items = append(items, Item{Index: i, Tuple: b.Base, Block: b})
			}
			continue
		}
		if tu.IsComplete() {
			items = append(items, Item{Index: i, Tuple: tu})
			continue
		}
		b, _, err := cold.ResolveBlock(ctx, tu, nil)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, Item{Index: i, Tuple: tu, Block: b})
	}
	return items
}

func requireItemsIdentical(t *testing.T, got, want []Item, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || g.Tuple.Key() != w.Tuple.Key() {
			t.Fatalf("%s: item %d is (%d, %v), want (%d, %v)", label, i, g.Index, g.Tuple, w.Index, w.Tuple)
		}
		if (g.Block == nil) != (w.Block == nil) {
			t.Fatalf("%s: item %d certainty differs", label, i)
		}
		if g.Block == nil {
			continue
		}
		if len(g.Block.Alts) != len(w.Block.Alts) {
			t.Fatalf("%s: item %d has %d alts, want %d", label, i, len(g.Block.Alts), len(w.Block.Alts))
		}
		for k := range w.Block.Alts {
			if g.Block.Alts[k].Prob != w.Block.Alts[k].Prob ||
				g.Block.Alts[k].Tuple.Key() != w.Block.Alts[k].Tuple.Key() {
				t.Fatalf("%s: item %d alt %d = %v, want %v (not bit-identical)",
					label, i, k, g.Block.Alts[k], w.Block.Alts[k])
			}
		}
	}
}

func collectSnapshot(t *testing.T, e *Engine, ds *Dataset) []Item {
	t.Helper()
	snap, err := ds.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	if err := e.Stream(context.Background(), snap, Pools{}, EmitFunc(func(it Item) error {
		items = append(items, it)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return items
}

// TestDatasetObserveBitIdenticalToColdEngine is the live-evidence
// contract: after any sequence of observation deltas, the live dataset's
// derived database is bit-identical to a fresh engine deriving the base
// relation and conditioning it directly — on an unbounded engine and on
// one whose block and CPD caches hold one entry each, so no evicted cache
// state can ever influence an answer.
func TestDatasetObserveBitIdenticalToColdEngine(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2500, 53)
	rel := dirtyRelation(t, inst, rng, 80)
	modes := []struct {
		name string
		cfg  Config
	}{
		{"chains", engineConfig(3)},
		{"chains-evicting", func() Config {
			c := engineConfig(3)
			c.CacheEntries = 1 // the block and CPD caches thrash
			return c
		}()},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			live, err := New(m, mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := live.RegisterDataset(rel)
			if err != nil {
				t.Fatal(err)
			}
			script := scriptObservations(t, live, rel, 3)
			for _, o := range script {
				if _, err := ds.Observe(context.Background(), o.index, o.attr, o.val); err != nil {
					t.Fatalf("observe %+v: %v", o, err)
				}
			}
			got := collectSnapshot(t, live, ds)
			want := conditionedOracle(t, m, mode.cfg, rel, script)
			requireItemsIdentical(t, got, want, mode.name)

			// A second snapshot, copied from the same posteriors the
			// dataset owns, is identical again.
			requireItemsIdentical(t, collectSnapshot(t, live, ds), want, mode.name+"/resnap")
		})
	}
}

// TestDatasetObserveSemantics pins the delta-level contract: collapse on
// the last missing value, zero-mass rejection, conflict rejection,
// no-op detection, and out-of-range validation.
func TestDatasetObserveSemantics(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 59)
	rel := dirtyRelation(t, inst, rng, 40)
	e, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	single, multi, complete := -1, -1, -1
	for i, tu := range rel.Tuples {
		switch {
		case tu.IsComplete():
			complete = i
		case tu.NumMissing() == 1:
			single = i
		default:
			multi = i
		}
	}
	if single < 0 || multi < 0 || complete < 0 {
		t.Fatal("fixture lacks a tuple class")
	}

	// Observing a single-missing tuple's most probable completion
	// collapses it.
	b, _, err := e.ResolveBlock(ctx, rel.Tuples[single], nil)
	if err != nil {
		t.Fatal(err)
	}
	attr := rel.Tuples[single].MissingAttrs()[0]
	res, err := ds.Observe(ctx, single, attr, b.Alts[0].Tuple[attr])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Collapsed || res.Alternatives != 1 || res.Epoch != 1 {
		t.Fatalf("collapse result = %+v", res)
	}
	// Re-observing the same value is a no-op at the same version.
	v := res.Version
	if res, err = ds.Observe(ctx, single, attr, b.Alts[0].Tuple[attr]); err != nil {
		t.Fatal(err)
	}
	if !res.Noop || res.Version != v {
		t.Fatalf("no-op result = %+v (version was %d)", res, v)
	}
	// A conflicting observation on the collapsed tuple fails.
	other := (b.Alts[0].Tuple[attr] + 1) % rel.Schema.Attrs[attr].Card()
	if _, err := ds.Observe(ctx, single, attr, other); err == nil {
		t.Fatal("conflicting observation on collapsed tuple succeeded")
	}

	// Zero-remaining-mass: find a value no alternative of the multi
	// block carries, if the domain admits one.
	mb, _, err := e.ResolveBlock(ctx, rel.Tuples[multi], nil)
	if err != nil {
		t.Fatal(err)
	}
	mattr := rel.Tuples[multi].MissingAttrs()[0]
	seen := make(map[int]bool)
	for _, a := range mb.Alts {
		seen[a.Tuple[mattr]] = true
	}
	for val := 0; val < rel.Schema.Attrs[mattr].Card(); val++ {
		if !seen[val] {
			if _, err := ds.Observe(ctx, multi, mattr, val); err == nil {
				t.Fatal("zero-mass observation succeeded")
			}
			break
		}
	}

	// A complete tuple accepts only confirming evidence.
	if res, err = ds.Observe(ctx, complete, 0, rel.Tuples[complete][0]); err != nil || !res.Noop {
		t.Fatalf("confirming observation on certain tuple: %+v, %v", res, err)
	}
	wrong := (rel.Tuples[complete][0] + 1) % rel.Schema.Attrs[0].Card()
	if _, err := ds.Observe(ctx, complete, 0, wrong); err == nil {
		t.Fatal("conflicting observation on certain tuple succeeded")
	}

	// Range validation.
	if _, err := ds.Observe(ctx, -1, 0, 0); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := ds.Observe(ctx, 0, 99, 0); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if _, err := ds.Observe(ctx, multi, mattr, 99); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
}

// TestDatasetConcurrentObserveSnapshot: observers and snapshot readers on
// one dataset at once. Every snapshot is a consistent cut (never more
// observed tuples than applied observations, versions never going back
// for one reader), one reader reads one snapshot per version, and once
// the observers are done the dataset derives bit-identically to the cold
// oracle. Then two snapshots with no applied observation between them
// are one snapshot: a no-op observation keeps it, and an applied one
// yields a new one.
func TestDatasetConcurrentObserveSnapshot(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 79)
	rel := dirtyRelation(t, inst, rng, 60)
	cfg := engineConfig(2)
	e, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	script := scriptObservations(t, e, rel, 2)
	ctx := context.Background()
	done := make(chan struct{})
	var observers, readers sync.WaitGroup
	for part := 0; part < 2; part++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for _, o := range script {
				if o.index%2 != part {
					continue // each tuple's deltas stay in order on one goroutine
				}
				if _, err := ds.Observe(ctx, o.index, o.attr, o.val); err != nil {
					t.Errorf("observe %+v: %v", o, err)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			var prev *DatasetSnapshot
			for {
				snap, err := ds.Snapshot(ctx)
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if snap.Version < last || uint64(len(snap.Overrides)) > snap.Version {
					t.Errorf("snapshot at version %d (after %d) with %d observed tuples", snap.Version, last, len(snap.Overrides))
					return
				}
				if prev != nil && (snap.Version == prev.Version) != (snap == prev) {
					t.Errorf("snapshots %p and %p at versions %d and %d: want one snapshot per version", prev, snap, prev.Version, snap.Version)
					return
				}
				last, prev = snap.Version, snap
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	observers.Wait()
	close(done)
	readers.Wait()
	requireItemsIdentical(t, collectSnapshot(t, e, ds), conditionedOracle(t, m, cfg, rel, script), "after concurrent observes")

	snapshot := func() *DatasetSnapshot {
		t.Helper()
		snap, err := ds.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	shared := snapshot()
	if again := snapshot(); again != shared {
		t.Fatalf("two snapshots of version %d with no observation between them differ", shared.Version)
	}
	if res, err := ds.Observe(ctx, script[0].index, script[0].attr, script[0].val); err != nil || !res.Noop {
		t.Fatalf("re-observing %+v: %+v, %v; want a no-op", script[0], res, err)
	}
	if again := snapshot(); again != shared {
		t.Fatal("a no-op observation replaced the snapshot")
	}
	for i, tu := range shared.Rel.Tuples {
		if tu.IsComplete() || shared.Overrides[i] != nil {
			continue
		}
		b, _, err := e.ResolveBlock(ctx, tu, nil)
		if err != nil {
			t.Fatal(err)
		}
		attr := tu.MissingAttrs()[0]
		if res, err := ds.Observe(ctx, i, attr, b.Alts[0].Tuple[attr]); err != nil || res.Noop {
			t.Fatalf("observing tuple %d: %+v, %v; want an applied observation", i, res, err)
		}
		break
	}
	if next := snapshot(); next == shared || next.Version != shared.Version+1 {
		t.Fatalf("after an applied observation: snapshot at version %d (shared %v), want a new snapshot at version %d",
			next.Version, next == shared, shared.Version+1)
	}
}

// TestDatasetIsolation: two datasets over the same relation share every
// content-keyed cache but never each other's evidence.
func TestDatasetIsolation(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 61)
	rel := dirtyRelation(t, inst, rng, 40)
	e, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	bds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == bds.ID() {
		t.Fatalf("datasets share id %q", a.ID())
	}
	before := collectSnapshot(t, e, bds)
	script := scriptObservations(t, e, rel, 2)
	for _, o := range script {
		if _, err := a.Observe(context.Background(), o.index, o.attr, o.val); err != nil {
			t.Fatal(err)
		}
	}
	requireItemsIdentical(t, collectSnapshot(t, e, bds), before, "unobserved dataset")
	if bds.Version() != 0 {
		t.Fatalf("unobserved dataset advanced to version %d", bds.Version())
	}
}

// TestDatasetStatsAndWatchers: the observation counters and live gauges
// the server reports.
func TestDatasetStatsAndWatchers(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 67)
	rel := dirtyRelation(t, inst, rng, 40)
	e, err := New(m, engineConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Datasets != 1 || st.Watchers != 0 {
		t.Fatalf("gauges = %d datasets, %d watchers", st.Datasets, st.Watchers)
	}
	ch, cancel := ds.Subscribe()
	if st := e.Stats(); st.Watchers != 1 {
		t.Fatalf("watchers = %d after subscribe", st.Watchers)
	}

	script := scriptObservations(t, e, rel, 2)
	for _, o := range script {
		if _, err := ds.Observe(context.Background(), o.index, o.attr, o.val); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-ch:
	default:
		t.Fatal("watcher received no signal")
	}
	st := e.Stats()
	if st.Observations != int64(len(script)) {
		t.Fatalf("Observations = %d, want %d", st.Observations, len(script))
	}
	// Every second observation of a two-step script supersedes the
	// tuple's posterior, which InvalidatedEntries counts.
	if st.InvalidatedEntries == 0 {
		t.Fatal("no conditioned-block entry was invalidated")
	}
	if ds.Version() != uint64(len(script)) {
		t.Fatalf("Version = %d, want %d", ds.Version(), len(script))
	}

	cancel()
	cancel() // idempotent
	if st := e.Stats(); st.Watchers != 0 {
		t.Fatalf("watchers = %d after cancel", st.Watchers)
	}

	if !e.DropDataset(ds.ID()) {
		t.Fatal("DropDataset missed a registered dataset")
	}
	if e.DropDataset(ds.ID()) {
		t.Fatal("DropDataset found a dropped dataset")
	}
	select {
	case <-ds.Done():
	default:
		t.Fatal("Done not closed on drop")
	}
	if _, err := ds.Observe(context.Background(), script[0].index, script[0].attr, script[0].val); err == nil {
		t.Fatal("observe on dropped dataset succeeded")
	}
	if st := e.Stats(); st.Datasets != 0 {
		t.Fatalf("datasets gauge = %d after drop", st.Datasets)
	}
}

// TestSnapshotRunsNoInference: a snapshot copies the posteriors the
// dataset owns and infers nothing, so on an engine whose block cache
// holds one entry, with every inference fault point panicking, it still
// returns the posteriors it returned before the faults were armed.
func TestSnapshotRunsNoInference(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 73)
	rel := dirtyRelation(t, inst, rng, 40)
	cfg := engineConfig(2)
	cfg.CacheEntries = 1
	e, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, o := range scriptObservations(t, e, rel, 2) {
		if _, err := ds.Observe(ctx, o.index, o.attr, o.val); err != nil {
			t.Fatalf("observe %+v: %v", o, err)
		}
	}
	before, err := ds.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Overrides) < 2 {
		t.Fatalf("%d observed tuples, want at least 2", len(before.Overrides))
	}
	if err := faultinject.Configure("derive.vote=panic/1,derive.chain=panic/1,gibbs.chain=panic/1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	after, err := ds.Snapshot(ctx)
	faultinject.Disable()
	if err != nil {
		t.Fatalf("snapshot under inference faults: %v", err)
	}
	if after.Version != before.Version || !maps.Equal(after.Overrides, before.Overrides) {
		t.Fatalf("snapshot under inference faults: version %d with %d overrides, want version %d with the same %d",
			after.Version, len(after.Overrides), before.Version, len(before.Overrides))
	}
}

// TestStreamSnapshotPrefetchStopsWithStream: a snapshot stream whose
// emitter fails returns only after its prefetch pools have drained, like
// a relation stream, so no chain runs on its behalf once it has
// returned.
func TestStreamSnapshotPrefetchStopsWithStream(t *testing.T) {
	m, inst, rng := learnBN(t, "BN8", 2000, 71)
	rel := relation.NewRelation(inst.Top.Schema())
	for i := 0; i < 400; i++ {
		tu := inst.Sample(rng)
		for _, a := range rng.Perm(len(tu))[:2] {
			tu[a] = relation.Missing
		}
		if err := rel.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	cfg := engineConfig(2)
	cfg.Gibbs.Samples = 3000
	e, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := e.RegisterDataset(rel)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ds.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	if err := e.Stream(context.Background(), snap, Pools{}, EmitFunc(func(Item) error { return stop })); !errors.Is(err, stop) {
		t.Fatalf("snapshot stream error = %v, want the emitter's", err)
	}
	returned := e.Stats().GibbsComputed
	time.Sleep(300 * time.Millisecond)
	if later := e.Stats().GibbsComputed; later != returned {
		t.Fatalf("chains kept running after the snapshot stream returned: %d at return, %d 300ms later", returned, later)
	}
}

// TestSnapshotSourceSchemaChecked: a stream checks the schema of every
// source, so a join-input dataset's snapshot — a relation over its own
// schema, not the model's — is refused with a *SchemaMismatchError before
// anything is emitted, as a relation over that schema is.
func TestSnapshotSourceSchemaChecked(t *testing.T) {
	rel := relation.Matchmaking()
	rc, _ := rel.Split()
	m, err := core.Learn(rc, core.Config{SupportThreshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, engineConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	part := relation.MustSchema([]relation.Attribute{
		{Name: "key", Domain: []string{"k1", "k2"}},
		rel.Schema.Attrs[0],
	})
	in := relation.NewRelation(part)
	for _, tu := range []relation.Tuple{{0, 0}, {1, relation.Missing}} {
		if err := in.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := e.RegisterJoinInput(in)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ds.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{in, snap} {
		emitted := 0
		err := e.Stream(context.Background(), src, Pools{}, EmitFunc(func(Item) error { emitted++; return nil }))
		var mismatch *SchemaMismatchError
		if !errors.As(err, &mismatch) {
			t.Errorf("%T over a 2-attribute schema: err = %v, want *SchemaMismatchError", src, err)
		}
		if emitted != 0 {
			t.Errorf("%T over a 2-attribute schema emitted %d items before failing", src, emitted)
		}
	}
}
