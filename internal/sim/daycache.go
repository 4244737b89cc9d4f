package sim

import (
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

// dayCache is a bounded LRU of solar days whose memo gives concurrent
// callers of one key a single build.
type dayCache struct{ entries *lru.Cache[dayKey, *SolarDay] }

var days = &dayCache{entries: lru.New[dayKey, *SolarDay](dayCacheCap)}

// get returns the day for k; missed reports whether this call built it,
// so summing it over callers counts builds.
func (c *dayCache) get(k dayKey) (d *SolarDay, missed bool, err error) {
	d, disp, err := c.entries.Do(k, nil, func() (*SolarDay, error) {
		tr := atmos.Generate(k.site, k.season, atmos.GenConfig{Day: k.day})
		return NewSolarDay(tr, pv.BP3180N(), 1, k.panels)
	})
	return d, disp == lru.Led, err
}

// CachedDay returns the day of a site, season and weather day index bound
// to panels parallel BP3180N modules from the process-wide day cache,
// least recently used evicted first. Concurrent callers of one day share
// one build; built reports whether this call built it. A failed build is
// not cached. The day is shared: callers must not mutate it.
func CachedDay(site atmos.Site, season atmos.Season, day, panels int) (d *SolarDay, built bool, err error) {
	return days.get(dayKey{site, season, day, panels})
}
