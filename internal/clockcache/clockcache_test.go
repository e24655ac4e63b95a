package clockcache

import (
	"sync"
	"testing"
)

func TestUnboundedActsLikeMap(t *testing.T) {
	m := New[int](0, nil)
	for i := 0; i < 1000; i++ {
		m.Put([]byte{byte(i), byte(i >> 8)}, i)
	}
	if m.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", m.Len())
	}
	if m.Evictions() != 0 {
		t.Fatalf("unbounded map evicted %d entries", m.Evictions())
	}
	for i := 0; i < 1000; i++ {
		v, ok := m.Get([]byte{byte(i), byte(i >> 8)})
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
}

func TestBoundedEvictsAtCap(t *testing.T) {
	m := New[int](4, nil)
	for i := 0; i < 100; i++ {
		m.Put([]byte(string(rune('a'+i))), i)
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	if m.Evictions() != 96 {
		t.Fatalf("Evictions = %d, want 96", m.Evictions())
	}
}

// TestClockPrefersUnreferenced checks the second-chance behavior with a
// deterministic trace: once the sweep has cleared reference bits, a
// still-referenced entry survives the next eviction while the
// unreferenced one is the victim.
func TestClockPrefersUnreferenced(t *testing.T) {
	m := New[int](2, nil)
	m.Put([]byte("a"), 1)
	m.Put([]byte("b"), 2)
	// Full map, both referenced: the sweep clears both bits and evicts the
	// slot the hand returns to first ("a").
	m.Put([]byte("c"), 3)
	if _, ok := m.Get([]byte("a")); ok {
		t.Fatalf("expected 'a' to be the first victim")
	}
	// Now "c" carries a fresh reference bit and "b" does not: the next
	// insert must evict "b" and spare "c".
	m.Put([]byte("d"), 4)
	if _, ok := m.Get([]byte("b")); ok {
		t.Fatalf("unreferenced 'b' survived the sweep")
	}
	if v, ok := m.Get([]byte("c")); !ok || v != 3 {
		t.Fatalf("referenced 'c' was evicted (got %d, %v)", v, ok)
	}
}

func TestUpdateInPlace(t *testing.T) {
	m := New[int](2, nil)
	m.Put([]byte("k"), 1)
	m.Put([]byte("k"), 2)
	if v, _ := m.Get([]byte("k")); v != 2 {
		t.Fatalf("update lost: got %d", v)
	}
	if m.Len() != 1 {
		t.Fatalf("duplicate key grew the map: Len = %d", m.Len())
	}
}

// TestUnevictableGuard checks guarded slots are skipped and the map grows
// past capacity rather than stalling when nothing is evictable.
func TestUnevictableGuard(t *testing.T) {
	evictable := func(v int) bool { return v >= 0 }
	m := New[int](2, evictable)
	m.Put([]byte("pin1"), -1)
	m.Put([]byte("pin2"), -2)
	m.Put([]byte("x"), 1) // nothing evictable: must grow
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (grow past cap)", m.Len())
	}
	if m.Evictions() != 0 {
		t.Fatalf("evicted a guarded slot")
	}
	m.Put([]byte("y"), 2) // "x" (evictable) can now be displaced eventually
	if _, ok := m.Get([]byte("pin1")); !ok {
		t.Fatalf("guarded entry lost")
	}
	if _, ok := m.Get([]byte("pin2")); !ok {
		t.Fatalf("guarded entry lost")
	}
}

func TestRange(t *testing.T) {
	m := New[int](0, nil)
	m.Put([]byte("a"), 1)
	m.Put([]byte("b"), 2)
	sum := 0
	m.Range(func(_ string, v int) bool { sum += v; return true })
	if sum != 3 {
		t.Fatalf("Range sum = %d, want 3", sum)
	}
}

func TestInvalidateRemovesExactly(t *testing.T) {
	m := New[int](0, nil)
	for i := 0; i < 8; i++ {
		m.Put([]byte{byte('a' + i)}, i)
	}
	if !m.Invalidate("c") {
		t.Fatal("Invalidate missed a present key")
	}
	if m.Invalidate("c") {
		t.Fatal("Invalidate found an absent key")
	}
	if m.Len() != 7 {
		t.Fatalf("Len = %d, want 7", m.Len())
	}
	// Every other entry survives.
	for i := 0; i < 8; i++ {
		k := string(rune('a' + i))
		v, ok := m.Get([]byte(k))
		if k == "c" {
			if ok {
				t.Fatal("invalidated entry still present")
			}
			continue
		}
		if !ok || v != i {
			t.Fatalf("entry %q lost by unrelated invalidation: %d, %v", k, v, ok)
		}
	}
	if m.Evictions() != 0 {
		t.Fatalf("invalidation counted as eviction")
	}
}

// TestRemoveKeepsClockConsistent exercises the move-last-into-hole delete
// against subsequent eviction sweeps: positions stay correct and the map
// keeps honoring its capacity.
func TestRemoveKeepsClockConsistent(t *testing.T) {
	m := New[int](4, nil)
	for i := 0; i < 4; i++ {
		m.Put([]byte{byte('a' + i)}, i)
	}
	m.Invalidate("a") // moves "d" into slot 0
	if v, ok := m.Get([]byte("d")); !ok || v != 3 {
		t.Fatalf("moved entry lost: %d, %v", v, ok)
	}
	// Fill back to capacity and beyond: sweeps must still terminate and
	// keep Len at cap.
	for i := 0; i < 20; i++ {
		m.Put([]byte{byte('A' + i)}, 100+i)
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	for i := 0; i < 4; i++ {
		m.Invalidate(string(rune('a' + i))) // mostly absent; must not corrupt
	}
	m.Put([]byte("z"), 999)
	if v, ok := m.Get([]byte("z")); !ok || v != 999 {
		t.Fatalf("post-churn put lost: %d, %v", v, ok)
	}
}

// TestConcurrentGets: Gets alone may run at once, as under a shared lock;
// run under -race this checks that a hit's reference bit is set without
// a data race.
func TestConcurrentGets(t *testing.T) {
	m := New[int](0, nil)
	for i := 0; i < 64; i++ {
		m.Put([]byte{byte(i)}, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 1000; n++ {
				if v, ok := m.Get([]byte{byte(n % 64)}); !ok || v != n%64 {
					t.Errorf("Get(%d) = %d, %v", n%64, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
