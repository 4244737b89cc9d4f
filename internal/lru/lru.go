// Package lru is a bounded, concurrency-safe least-recently-used cache
// with the repository's one compute-once-per-key memo, Do.
//
// It exists because hot paths must not grow without limit: the HTTP
// result cache of internal/serve, the grid-cell cache of internal/exp's
// Lab, the process-wide day cache of internal/sim, the demand tables of
// internal/workload and solarvet's module cache, which all fill through
// Do. The implementation is a hand-rolled
// doubly-linked list over a map — stdlib-only, no interface boxing — and
// every operation is O(1) under one mutex.
package lru

import (
	"errors"
	"sync"
)

// node is one cache entry threaded on the recency list.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// Cache is a fixed-capacity LRU map. The zero value is not usable; build
// one with New or NewWithEvict. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	m        map[K]*node[K, V]
	head     *node[K, V] // most recently used
	tail     *node[K, V] // least recently used
	onEvict  func(K, V)
	flights  map[K]*flight[V] // fills in progress, by key
}

// flight is one fill in progress, shared by every caller of its key that
// arrives before it lands.
type flight[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// New builds a cache holding at most capacity entries. It panics on a
// non-positive capacity: the bound is the whole point of the type, and a
// zero cap is always a programming error, never a runtime condition.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return NewWithEvict[K, V](capacity, nil)
}

// NewWithEvict is New with an eviction hook: onEvict runs once per entry
// displaced by capacity pressure (not for overwrites of an existing key),
// synchronously, while the cache lock is held — keep it cheap and never
// call back into the cache from it.
func NewWithEvict[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: capacity must be at least 1")
	}
	hint := capacity
	if hint > 1024 {
		// The map grows on demand; a huge capacity (internal/store bounds
		// by bytes, not entries, and passes a practically-unreachable cap)
		// must not preallocate gigabytes of buckets up front.
		hint = 1024
	}
	return &Cache[K, V]{
		capacity: capacity,
		m:        make(map[K]*node[K, V], hint),
		onEvict:  onEvict,
		flights:  map[K]*flight[V]{},
	}
}

// unlink removes n from the recency list.
func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront makes n the most recently used entry.
func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// touch promotes n to most recently used.
func (c *Cache[K, V]) touch(n *node[K, V]) {
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
}

// Get returns the value stored under key and promotes it to most
// recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(n)
	return n.val, true
}

// Put stores val under key as the most recently used entry, evicting the
// least recently used entry when the cache is over capacity. Overwriting
// an existing key promotes it and never evicts.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.m[key]; ok {
		n.val = val
		c.touch(n)
		return
	}
	n := &node[K, V]{key: key, val: val}
	c.m[key] = n
	c.pushFront(n)
	if len(c.m) > c.capacity {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		if c.onEvict != nil {
			c.onEvict(lru.key, lru.val)
		}
	}
}

// Disposition says how Do produced its value.
type Disposition uint8

// Do's dispositions.
const (
	Hit    Disposition = iota // the value was cached
	Led                       // this call ran the fill
	Joined                    // this call shared a fill another caller ran
)

// The errors Do gives a joined caller whose done closed first, or whose
// fill panicked.
var (
	ErrAbandoned = errors.New("lru: caller left before the shared fill finished")
	ErrPanicked  = errors.New("lru: shared fill panicked")
)

// Do returns the value cached under key, or computes it with fill. A
// call that misses while a fill for key is running joins it instead of
// running its own, so fill runs once per key at a time and every joined
// caller gets its outcome. Only an outcome with a nil error is stored.
//
// A joined caller stops waiting when done closes and returns
// ErrAbandoned; the fill carries on for the others and for the cache. A
// nil done waits for the fill. If fill panics, its joined callers get
// ErrPanicked, nothing is stored, the key has no fill in progress
// afterwards, and the panic goes on in the caller that ran fill.
func (c *Cache[K, V]) Do(key K, done <-chan struct{}, fill func() (V, error)) (v V, d Disposition, err error) {
	c.mu.Lock()
	if n, ok := c.m[key]; ok {
		c.touch(n)
		v = n.val
		c.mu.Unlock()
		return v, Hit, nil
	}
	f, joined := c.flights[key]
	if !joined {
		// err stays ErrPanicked unless fill returns.
		f = &flight[V]{done: make(chan struct{}), err: ErrPanicked}
		c.flights[key] = f
	}
	c.mu.Unlock()
	if joined {
		select {
		case <-f.done:
			return f.val, Joined, f.err
		case <-done:
			return v, Joined, ErrAbandoned
		}
	}
	defer c.land(key, f)
	f.val, f.err = fill()
	return f.val, Led, f.err
}

// land ends f's flight: it stores a successful value before it drops
// the flight, so no caller can miss both, then wakes the joined callers.
func (c *Cache[K, V]) land(key K, f *flight[V]) {
	if f.err == nil {
		c.Put(key, f.val)
	}
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// Remove deletes the entry stored under key, reporting whether it was
// present. Removal is not an eviction: the onEvict hook does not run and
// the eviction counter does not move — callers (internal/store's
// byte-budget sweep, quarantine of a corrupt record) account for the
// entry themselves.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.m[key]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.m, key)
	return true
}

// Oldest peeks at the least recently used entry without promoting it —
// the probe a byte-budget eviction loop needs to decide what to delete
// next (pair it with Remove).
func (c *Cache[K, V]) Oldest() (K, V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tail == nil {
		var zk K
		var zv V
		return zk, zv, false
	}
	return c.tail.key, c.tail.val, true
}

// Len returns the current entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Cap returns the fixed capacity.
func (c *Cache[K, V]) Cap() int { return c.capacity }

// Keys returns the keys from most to least recently used — an O(n)
// diagnostic for tests and eviction-order assertions.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.m))
	for n := c.head; n != nil; n = n.next {
		keys = append(keys, n.key)
	}
	return keys
}
