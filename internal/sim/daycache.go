package sim

import (
	"sync"

	"solarcore/internal/atmos"
	"solarcore/internal/lru"
	"solarcore/internal/pv"
)

// dayCacheCap bounds the process-wide day cache (DESIGN.md §4): a day
// retains about 25 KB, and 16 hold one exp.Lab's site × season grid.
const dayCacheCap = 16

// dayKey names a day: the weather of (site, season, day index) bound to
// panels parallel BP3180N modules.
type dayKey struct {
	site   atmos.Site
	season atmos.Season
	day    int
	panels int
}

// dayEntry builds its day once; callers racing on a key share the build.
type dayEntry struct {
	key  dayKey
	once sync.Once
	day  *SolarDay
	err  error
}

func (e *dayEntry) build() {
	tr := atmos.Generate(e.key.site, e.key.season, atmos.GenConfig{Day: e.key.day})
	e.day, e.err = NewSolarDay(tr, pv.BP3180N(), 1, e.key.panels)
}

// dayCache is a bounded, single-flight LRU of solar days.
type dayCache struct {
	mu      sync.Mutex // makes lookup-or-insert one step
	entries *lru.Cache[dayKey, *dayEntry]
}

var days = &dayCache{entries: lru.New[dayKey, *dayEntry](dayCacheCap)}

// get returns the day for k; missed reports whether this call inserted
// the entry, so summing it over callers counts builds.
func (c *dayCache) get(k dayKey) (d *SolarDay, missed bool, err error) {
	c.mu.Lock()
	e, ok := c.entries.Get(k)
	if !ok {
		e = &dayEntry{key: k}
		c.entries.Put(k, e)
	}
	c.mu.Unlock()
	e.once.Do(e.build)
	return e.day, !ok, e.err
}

// CachedDay returns the day of a site, season and weather day index bound
// to panels parallel BP3180N modules from the process-wide day cache,
// least recently used evicted first. Concurrent callers of one day share
// one build; built reports whether this call missed. The day is shared:
// callers must not mutate it.
func CachedDay(site atmos.Site, season atmos.Season, day, panels int) (d *SolarDay, built bool, err error) {
	return days.get(dayKey{site, season, day, panels})
}
