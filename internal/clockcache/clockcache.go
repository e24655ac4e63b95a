// Package clockcache provides a size-bounded, string-keyed map with CLOCK
// (second-chance) eviction — the bounding primitive behind the engine's
// memoization caches. Entries get a reference bit on every hit; when the
// map is full, a clock hand sweeps the slots, clearing reference bits and
// evicting the first unreferenced entry it finds. That approximates LRU at
// O(1) amortized cost with no per-access list maintenance, which keeps the
// hit path cheap enough for inference inner loops.
//
// A Map is NOT safe for concurrent use; callers provide locking (the
// derivation engine probes under its own lock, the CPD cache shards and
// locks per shard). Gets alone may run concurrently with each other, so a
// caller may probe under a shared (read) lock. Get probes with a []byte
// key so hot paths can reuse a scratch buffer — the compiler elides the
// string conversion inside the map index expression, so a hit performs no
// allocation.
package clockcache

import "sync/atomic"

// Map is a bounded string-keyed map with CLOCK eviction. The zero Map is
// not usable; construct with New.
type Map[V any] struct {
	cap       int
	pos       map[string]int
	keys      []string
	vals      []V
	ref       []uint32 // reference bits; Get sets them atomically
	hand      int
	evictions int64
	// evictable, when non-nil, guards slots from eviction (e.g. in-flight
	// single-flight entries the computing goroutine will still write).
	evictable func(V) bool
}

// New returns a map evicting beyond capacity entries; capacity <= 0 means
// unbounded (a plain map with no eviction). evictable, when non-nil,
// marks which values may be dropped; if a full sweep finds no evictable
// slot the map grows past its capacity rather than stall.
func New[V any](capacity int, evictable func(V) bool) *Map[V] {
	// The map is deliberately not pre-sized to capacity: caches are often
	// constructed with large caps and filled far below them, and the map
	// grows on demand anyway.
	return &Map[V]{cap: capacity, pos: make(map[string]int), evictable: evictable}
}

// Get returns the value stored under key and marks it recently used. The
// []byte key is not retained; a hit does not allocate. Get only reads the
// map and sets the reference bit atomically, so Gets may run
// concurrently with each other.
func (m *Map[V]) Get(key []byte) (V, bool) {
	i, ok := m.pos[string(key)]
	if !ok {
		var zero V
		return zero, false
	}
	if atomic.LoadUint32(&m.ref[i]) == 0 {
		atomic.StoreUint32(&m.ref[i], 1)
	}
	return m.vals[i], true
}

// Put stores v under the key b (copying it), evicting one entry via the
// clock sweep when the map is at capacity.
func (m *Map[V]) Put(b []byte, v V) {
	key := string(b)
	if i, ok := m.pos[key]; ok {
		m.vals[i] = v
		m.ref[i] = 1
		return
	}
	if m.cap > 0 && len(m.keys) >= m.cap {
		n := len(m.keys)
		// Two sweeps suffice when every slot is evictable: the first pass
		// clears reference bits, the second finds a victim. Unevictable
		// slots can exhaust the sweep; grow past capacity rather than spin.
		for scanned := 0; scanned < 2*n; scanned++ {
			h := m.hand
			m.hand++
			if m.hand == n {
				m.hand = 0
			}
			if m.evictable != nil && !m.evictable(m.vals[h]) {
				continue
			}
			if m.ref[h] != 0 {
				m.ref[h] = 0
				continue
			}
			delete(m.pos, m.keys[h])
			m.evictions++
			m.keys[h] = key
			m.vals[h] = v
			m.ref[h] = 1
			m.pos[key] = h
			return
		}
	}
	m.pos[key] = len(m.keys)
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, v)
	m.ref = append(m.ref, 1)
}

// Invalidate removes the entry stored under key, reporting whether one
// was present. Unlike eviction, invalidation is the caller's decision and
// is not counted in Evictions.
func (m *Map[V]) Invalidate(key string) bool {
	i, ok := m.pos[key]
	if !ok {
		return false
	}
	m.remove(i)
	return true
}

// remove deletes slot i by moving the last slot into the hole. The hand
// is reset into range if it walked off the shrunk slot array; CLOCK is an
// approximation, so the small second-chance perturbation is harmless.
func (m *Map[V]) remove(i int) {
	delete(m.pos, m.keys[i])
	last := len(m.keys) - 1
	if i != last {
		m.keys[i] = m.keys[last]
		m.vals[i] = m.vals[last]
		m.ref[i] = m.ref[last]
		m.pos[m.keys[i]] = i
	}
	var zero V
	m.keys[last] = ""
	m.vals[last] = zero
	m.ref[last] = 0
	m.keys = m.keys[:last]
	m.vals = m.vals[:last]
	m.ref = m.ref[:last]
	if m.hand >= last {
		m.hand = 0
	}
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return len(m.keys) }

// Evictions returns the number of entries evicted over the map's lifetime.
func (m *Map[V]) Evictions() int64 { return m.evictions }

// Range calls f for every entry until f returns false. Iteration order is
// slot order, not insertion order.
func (m *Map[V]) Range(f func(key string, v V) bool) {
	for i, k := range m.keys {
		if !f(k, m.vals[i]) {
			return
		}
	}
}
