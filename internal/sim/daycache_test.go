package sim

import (
	"math"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/lru"
	"solarcore/internal/pv"
)

// newDayCache builds an empty cache of the process-wide one's shape, so
// tests never depend on what other tests left in the shared instance.
func newDayCache() *dayCache {
	return &dayCache{entries: lru.New[dayKey, *SolarDay](dayCacheCap)}
}

// TestDayCacheSingleFlight checks concurrent callers of one key share a
// single build and receive the same day.
func TestDayCacheSingleFlight(t *testing.T) {
	c := newDayCache()
	k := dayKey{site: atmos.NC, season: atmos.Apr, day: 3, panels: 2}
	const callers = 8
	got := make([]*SolarDay, callers)
	missed := make([]bool, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, m, err := c.get(k)
			if err != nil {
				t.Error(err)
			}
			got[i], missed[i] = d, m
		}()
	}
	wg.Wait()
	builds := 0
	for i := range callers {
		if missed[i] {
			builds++
		}
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got day %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if builds != 1 {
		t.Errorf("%d callers built the day, want 1", builds)
	}
}

// TestDayCacheEvictsLeastRecentlyUsed fills the cache to its cap,
// refreshes the oldest key, and checks one more key evicts the least
// recently used one instead.
func TestDayCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newDayCache()
	key := func(i int) dayKey { return dayKey{site: atmos.AZ, season: atmos.Jan, day: i, panels: 1} }
	for i := range dayCacheCap {
		if _, missed, err := c.get(key(i)); err != nil || !missed {
			t.Fatalf("cold key %d: missed=%v err=%v", i, missed, err)
		}
	}
	if _, missed, _ := c.get(key(0)); missed {
		t.Fatal("cached key 0 missed")
	}
	if _, missed, _ := c.get(key(dayCacheCap)); !missed {
		t.Fatal("key past the cap hit")
	}
	if n := c.entries.Len(); n != dayCacheCap {
		t.Errorf("cache holds %d days, want %d", n, dayCacheCap)
	}
	if _, missed, _ := c.get(key(0)); missed {
		t.Error("recently used key 0 was evicted")
	}
	if _, missed, _ := c.get(key(1)); !missed {
		t.Error("least recently used key 1 survived the overflow")
	}
}

// TestCachedDayMatchesFreshBuild checks a cached day is the day
// NewSolarDay builds from the same inputs, sample for sample.
func TestCachedDayMatchesFreshBuild(t *testing.T) {
	d, _, err := newDayCache().get(dayKey{site: atmos.TN, season: atmos.Oct, day: 2, panels: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := atmos.Generate(atmos.TN, atmos.Oct, atmos.GenConfig{Day: 2})
	want, err := NewSolarDay(tr, pv.BP3180N(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Trace.Samples) != len(want.Trace.Samples) {
		t.Fatalf("cached day has %d samples, fresh %d", len(d.Trace.Samples), len(want.Trace.Samples))
	}
	for _, s := range want.Trace.Samples {
		if g, w := d.MPPAt(s.Minute), want.MPPAt(s.Minute); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("minute %v: cached MPP %v W, fresh %v W", s.Minute, g, w)
		}
	}
}
