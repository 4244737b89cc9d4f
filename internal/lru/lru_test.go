package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictionOrderIsLeastRecentlyUsed(t *testing.T) {
	var evicted []string
	c := NewWithEvict[string, int](2, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // evicts a: oldest, never touched again
	if _, ok := c.Get("a"); ok {
		t.Error("a survived past capacity; want LRU eviction")
	}
	for k, want := range map[string]int{"b": 2, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %t; want %d, true", k, v, ok, want)
		}
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Errorf("evicted %v, want [a]", evicted)
	}
}

func TestGetPromotesAgainstEviction(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // promote a: now b is LRU
		t.Fatal("a missing before capacity reached")
	}
	c.Put("c", 3) // must evict b, not a
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; Get(a) should have promoted a over b")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite being most recently used")
	}
}

func TestPutOverwritePromotesWithoutEvicting(t *testing.T) {
	var evicted []string
	c := NewWithEvict[string, int](2, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // overwrite: promote, no eviction
	if len(evicted) != 0 {
		t.Fatalf("overwrite evicted %v", evicted)
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("overwritten value = %d, want 10", v)
	}
	c.Put("c", 3) // b is LRU now
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; overwrite of a should have demoted b to LRU")
	}
}

func TestKeysReportsRecencyOrder(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	got := c.Keys()
	want := []string{"a", "c", "b"}
	if len(got) != len(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestOnEvictFiresOncePerDisplacedEntry(t *testing.T) {
	var evicted []string
	c := NewWithEvict[string, int](1, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("a", 2) // overwrite: no hook
	c.Put("b", 3) // displaces a
	c.Put("c", 4) // displaces b
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Errorf("evicted = %v, want [a b]", evicted)
	}
}

func TestLenAndCap(t *testing.T) {
	c := New[int, int](3)
	if c.Cap() != 3 || c.Len() != 0 {
		t.Fatalf("fresh cache: Len=%d Cap=%d, want 0/3", c.Len(), c.Cap())
	}
	for i := 0; i < 10; i++ {
		c.Put(i, i)
	}
	if c.Len() != 3 {
		t.Errorf("Len() = %d after overflow, want 3 (bounded)", c.Len())
	}
}

func TestRemoveDeletesWithoutEvicting(t *testing.T) {
	var evicted []string
	c := NewWithEvict[string, int](3, func(k string, _ int) { evicted = append(evicted, k) })
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if !c.Remove("b") {
		t.Fatal("Remove(b) = false for a present key")
	}
	if c.Remove("b") {
		t.Error("Remove(b) = true twice")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b still readable after Remove")
	}
	if c.Len() != 2 {
		t.Errorf("Len() = %d after Remove, want 2", c.Len())
	}
	if len(evicted) != 0 {
		t.Errorf("Remove ran the eviction hook: %v", evicted)
	}
	// The freed slot is real capacity again: two more puts, no eviction.
	c.Put("d", 4)
	if len(evicted) != 0 {
		t.Error("Put after Remove evicted despite free capacity")
	}
}

func TestRemoveHeadAndTailKeepListConsistent(t *testing.T) {
	c := New[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3) // recency: c b a
	c.Remove("c") // head
	c.Remove("a") // tail
	got := c.Keys()
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("Keys() = %v after head+tail removal, want [b]", got)
	}
	k, v, ok := c.Oldest()
	if !ok || k != "b" || v != 2 {
		t.Errorf("Oldest() = %q, %d, %t; want b, 2, true", k, v, ok)
	}
}

func TestOldestPeeksWithoutPromoting(t *testing.T) {
	c := New[string, int](3)
	if _, _, ok := c.Oldest(); ok {
		t.Error("Oldest() on an empty cache reported an entry")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	k, v, ok := c.Oldest()
	if !ok || k != "a" || v != 1 {
		t.Fatalf("Oldest() = %q, %d, %t; want a, 1, true", k, v, ok)
	}
	// Peeking must not promote: a is still the eviction victim.
	c.Put("c", 3)
	c.Put("d", 4)
	if _, ok := c.Get("a"); ok {
		t.Error("a survived eviction; Oldest() must not promote")
	}
}

func TestHugeCapacityDoesNotPreallocate(t *testing.T) {
	// internal/store bounds its index by bytes and passes an effectively
	// unbounded entry capacity; construction must stay O(1) in memory.
	c := New[string, int](1 << 30)
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %d, %t; want 1, true", v, ok)
	}
	if c.Cap() != 1<<30 {
		t.Errorf("Cap() = %d, want %d", c.Cap(), 1<<30)
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New[int, int](0)
}

// TestConcurrentAccess hammers one small cache from many goroutines; run
// under -race it is the package's concurrency-safety gate, and the final
// invariant checks the map and list never diverge.
func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (seed*31+i)%32)
				if i%3 == 0 {
					c.Put(k, i)
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Cap() {
		t.Errorf("Len() = %d exceeds Cap() = %d", c.Len(), c.Cap())
	}
	if got := len(c.Keys()); got != c.Len() {
		t.Errorf("recency list has %d entries, map has %d", got, c.Len())
	}
}
