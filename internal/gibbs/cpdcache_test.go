package gibbs

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/vote"
)

// TestCPDCacheBounding fills a tiny cache far past its cap and checks the
// bound holds, evictions are counted, and survivors read back intact.
func TestCPDCacheBounding(t *testing.T) {
	const cap = 64
	c := NewCPDCache(cap)
	method := bestAveraged()
	n := 10 * cap
	var key []byte
	for i := 0; i < n; i++ {
		tu := relation.Tuple{i, i % 7, relation.Missing}
		key = AppendCPDKey(key[:0], 2, method, tu)
		c.Put(key, dist.Dist{float64(i), 1 - float64(i)})
	}
	st := c.Stats()
	// Capacity is split across shards, each rounded up, so allow the
	// per-shard rounding slack.
	maxEntries := int64(cap + cpdShards)
	if st.Entries > maxEntries {
		t.Fatalf("cache holds %d entries, cap %d (max %d with shard rounding)", st.Entries, cap, maxEntries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded after inserting %d entries into a %d-entry cache", n, cap)
	}
	if st.Evictions+st.Entries != int64(n) {
		t.Fatalf("evictions (%d) + entries (%d) != inserts (%d)", st.Evictions, st.Entries, n)
	}
	// The most recent insert must still be resident and value-intact.
	tu := relation.Tuple{n - 1, (n - 1) % 7, relation.Missing}
	key = AppendCPDKey(key[:0], 2, method, tu)
	d, ok := c.Get(key)
	if !ok {
		t.Fatalf("most recent insert was evicted")
	}
	want := dist.Dist{float64(n - 1), 1 - float64(n-1)}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("got %v, want %v", d, want)
	}
}

// TestAppendCPDKeyUnique checks keys separate attributes, methods, and
// evidence assignments.
func TestAppendCPDKeyUnique(t *testing.T) {
	tuples := []relation.Tuple{
		{0, 1, relation.Missing},
		{1, 0, relation.Missing},
		{0, relation.Missing, 1},
		{relation.Missing, 0, 1},
		{relation.Missing, relation.Missing, relation.Missing},
	}
	seen := map[string]string{}
	for _, m := range vote.Methods() {
		for attr := 0; attr < 3; attr++ {
			for ti, tu := range tuples {
				id := fmt.Sprintf("m=%v attr=%d t=%d", m, attr, ti)
				k := string(AppendCPDKey(nil, attr, m, tu))
				if prev, dup := seen[k]; dup {
					t.Fatalf("key collision between %s and %s", prev, id)
				}
				seen[k] = id
			}
		}
	}
}

// TestSamplerSharedCacheDeterminism checks the central determinism claim:
// a sampler running against a shared cache — warm or cold, bounded so
// small it constantly evicts, or pre-populated by another sampler —
// produces bit-identical estimates to a private-memo sampler.
func TestSamplerSharedCacheDeterminism(t *testing.T) {
	m, inst, rng := learnBN(t, "BN6", 3000, 99)
	var tuples []relation.Tuple
	for i := 0; i < 4; i++ {
		tu := inst.Sample(rng)
		for _, a := range rng.Perm(len(tu))[:2] {
			tu[a] = relation.Missing
		}
		tuples = append(tuples, tu)
	}
	base := Config{Samples: 60, BurnIn: 10, Method: bestAveraged(), Seed: 5}

	run := func(cfg Config) []*dist.Joint {
		var out []*dist.Joint
		for _, tu := range tuples {
			s, err := New(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			j, err := s.InferTuple(tu)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, j)
		}
		return out
	}

	want := run(base) // private memo

	shared := base
	shared.Cache = NewCPDCache(0)
	if got := run(shared); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold shared cache changed estimates")
	}
	// Re-run against the now-warm shared cache: everything served from it.
	if got := run(shared); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm shared cache changed estimates")
	}
	tiny := base
	tiny.Cache = NewCPDCache(cpdShards) // one entry per shard: constant eviction
	if got := run(tiny); !reflect.DeepEqual(got, want) {
		t.Fatalf("tiny (always-evicting) shared cache changed estimates")
	}
	if st := tiny.Cache.Stats(); st.Evictions == 0 {
		t.Fatalf("tiny cache recorded no evictions; bound not exercised")
	}

	// InferIndependent (the engine's chain-tier unit) under a shared cache
	// must equal its private-memo result too.
	for _, tu := range tuples {
		jPriv, _, err := InferIndependent(m, base, tu)
		if err != nil {
			t.Fatal(err)
		}
		jShared, _, err := InferIndependent(m, shared, tu)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jPriv, jShared) {
			t.Fatalf("InferIndependent differs under shared cache for %v", tu)
		}
	}
}

// TestLocalCPDHitZeroAlloc pins zero allocations on the memo-hit path,
// for both the private map and the shared cache.
func TestLocalCPDHitZeroAlloc(t *testing.T) {
	m, inst, rng := learnBN(t, "BN6", 2000, 41)
	state := inst.Sample(rng)

	private, err := New(m, Config{Samples: 10, BurnIn: 2, Method: bestAveraged(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := New(m, Config{Samples: 10, BurnIn: 2, Method: bestAveraged(), Seed: 1,
		Cache: NewCPDCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Sampler{"private": private, "shared": shared} {
		if _, err := s.localCPD(state, 0); err != nil { // warm the memo
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.localCPD(state, 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s cache-hit path allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// TestInferIndependentWarmCacheAllocs pins a chain's allocations on a
// warm shared cache at a small constant: the cache serves every local
// CPD, so nothing the chain allocates grows with the distinct evidence
// states it visits.
func TestInferIndependentWarmCacheAllocs(t *testing.T) {
	m, inst, rng := learnBN(t, "BN7", 2000, 43)
	tu := hideValues(inst, rng, 1, 5)[0]
	cfg := Config{Samples: 200, BurnIn: 20, Method: bestAveraged(), Seed: 3, Cache: NewCPDCache(0)}
	if _, _, err := InferIndependent(m, cfg, tu); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := InferIndependent(m, cfg, tu); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("warm-cache chain allocates %.0f times, want at most 40", allocs)
	}
}

// TestCPDCacheConcurrentSmoke hammers one cache from many goroutines
// under overlapping keys; correctness is checked by the race detector and
// the counters' consistency.
func TestCPDCacheConcurrentSmoke(t *testing.T) {
	c := NewCPDCache(128)
	method := bestAveraged()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			var key []byte
			for i := 0; i < 2000; i++ {
				tu := relation.Tuple{(g + i) % 13, i % 5, relation.Missing}
				key = AppendCPDKey(key[:0], 2, method, tu)
				if d, ok := c.Get(key); ok {
					if len(d) != 2 {
						t.Errorf("corrupt entry: %v", d)
						return
					}
					continue
				}
				c.Put(key, dist.Dist{0.5, 0.5})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	st := c.Stats()
	if st.Hits+st.Misses != 4*2000 {
		t.Fatalf("hits (%d) + misses (%d) != probes (%d)", st.Hits, st.Misses, 4*2000)
	}
}
