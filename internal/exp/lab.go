// Package exp regenerates every table and figure of the paper's evaluation
// (Section 6). Each experiment is a function that returns typed data plus a
// Render method producing the ASCII equivalent of the paper's plot; the
// experiment index in DESIGN.md maps paper figure/table numbers to these
// functions, and cmd/experiments drives them all.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/lru"
	"solarcore/internal/obs"
	"solarcore/internal/par"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

// Options controls experiment fidelity versus runtime.
type Options struct {
	// StepMin is the simulation sub-sampling step in minutes (default 1).
	StepMin float64
	// Quick restricts grids (fewer mixes) for fast smoke runs and tests.
	Quick bool
	// Day selects the generated weather day within each period.
	Day int
	// Faults, when armed, applies the fault schedule to every run the lab
	// performs; the schedule tag becomes part of the cache keys, so one
	// lab can serve faulted and clean grids without cross-talk.
	Faults *fault.Schedule
	// Watchdog tunes the degradation state machine of faulted runs (the
	// zero value takes the DESIGN.md §11 defaults).
	Watchdog fault.WatchdogConfig
	// CacheEntries caps the lab's LRU result cache (0 takes
	// DefaultCacheEntries; negative values clamp to 1), so unboundedly
	// long ablation sweeps cannot grow memory without limit. Evictions
	// are counted in MetricLabEvictions.
	CacheEntries int
}

// DefaultCacheEntries is the result-cache cap when Options.CacheEntries
// is zero: larger than the full site × season × mix × policy × budget
// grid, so the paper's experiments never evict.
const DefaultCacheEntries = 4096

func (o Options) cacheEntries() int {
	switch {
	case o.CacheEntries > 0:
		return o.CacheEntries
	case o.CacheEntries < 0:
		return 1
	}
	return DefaultCacheEntries
}

func (o Options) stepMin() float64 {
	if o.StepMin > 0 {
		return o.StepMin
	}
	if o.Quick {
		return 2
	}
	return 1
}

// Mixes returns the workload grid for these options.
func (o Options) Mixes() []workload.Mix {
	if !o.Quick {
		return workload.Mixes
	}
	var out []workload.Mix
	for _, name := range []string{"H1", "L1", "HM2"} {
		m, _ := workload.MixByName(name)
		out = append(out, m)
	}
	return out
}

// FixedBudgets is the power-transfer threshold sweep of Figures 15-17 (W).
var FixedBudgets = []float64{25, 50, 75, 100, 125}

// Metric names the Lab maintains in its registry (DESIGN.md §10).
const (
	// MetricLabHits / MetricLabMisses count grid-cell cache hits and
	// misses across the Lab's run methods.
	MetricLabHits   = "lab_cache_hits_total"
	MetricLabMisses = "lab_cache_misses_total"
	// MetricLabCellMs is a histogram of per-cell simulation wall time in
	// milliseconds (cache misses only — hits cost no simulation).
	MetricLabCellMs = "lab_cell_wall_ms"
	// MetricLabDays counts solar days materialized (weather synthesis +
	// MPP profile precomputation).
	MetricLabDays = "lab_days_built_total"
	// MetricLabEvictions counts grid cells displaced from the bounded
	// result cache by capacity pressure (Options.CacheEntries).
	MetricLabEvictions = "lab_cache_evictions_total"
)

// Lab caches solar days and simulation runs so that the many experiments
// sharing the site × season × mix × policy grid compute each run once. All
// methods are safe for concurrent use. The run cache is a bounded LRU
// (Options.CacheEntries), so arbitrarily long sweeps stay within a fixed
// memory budget at the price of recomputing evicted cells. The lab keeps
// an obs.Registry of cache hit/miss/eviction counters and per-cell
// wall-time histograms; Metrics exports it.
type Lab struct {
	Opts Options

	mu   sync.Mutex
	days map[string]*sim.SolarDay
	runs *lru.Cache[string, *sim.DayResult]
	reg  *obs.Registry
}

// NewLab builds an empty lab.
func NewLab(opts Options) *Lab {
	reg := obs.NewRegistry()
	return &Lab{
		Opts: opts,
		days: map[string]*sim.SolarDay{},
		runs: lru.NewWithEvict[string, *sim.DayResult](opts.cacheEntries(),
			func(string, *sim.DayResult) { reg.Add(MetricLabEvictions, 1) }),
		reg: reg,
	}
}

// Metrics exports the lab's cache and wall-time metrics.
func (l *Lab) Metrics() obs.Snapshot { return l.reg.Snapshot() }

// Day returns the (cached) solar day for a site and season: the synthetic
// weather trace bound to one BP3180N module.
func (l *Lab) Day(site atmos.Site, season atmos.Season) *sim.SolarDay {
	key := site.Code + season.String()
	l.mu.Lock()
	if d, ok := l.days[key]; ok {
		l.mu.Unlock()
		return d
	}
	l.mu.Unlock()

	tr := atmos.Generate(site, season, atmos.GenConfig{Day: l.Opts.Day})
	d, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		panic(fmt.Sprintf("exp: building solar day %s: %v", key, err))
	}
	l.reg.Add(MetricLabDays, 1)
	l.mu.Lock()
	l.days[key] = d
	l.mu.Unlock()
	return d
}

// cell serves one grid cell through the cache, recording the hit/miss
// and — on a miss — the simulation wall time.
func (l *Lab) cell(key string, run func() *sim.DayResult) *sim.DayResult {
	if r, ok := l.runs.Get(key); ok {
		l.reg.Add(MetricLabHits, 1)
		return r
	}
	l.reg.Add(MetricLabMisses, 1)
	start := time.Now()
	r := run()
	l.reg.Observe(MetricLabCellMs, time.Since(start).Seconds()*1000)
	l.runs.Put(key, r)
	return r
}

func (l *Lab) config(site atmos.Site, season atmos.Season, mix workload.Mix, keepSeries bool) sim.Config {
	return sim.Config{
		Day:        l.Day(site, season),
		Mix:        mix,
		StepMin:    l.Opts.stepMin(),
		KeepSeries: keepSeries,
		Faults:     l.Opts.Faults,
		Watchdog:   l.Opts.Watchdog,
	}
}

// faultTag is the cache-key suffix identifying the lab's fault schedule
// ("" when disarmed), keeping faulted and clean cells apart.
func (l *Lab) faultTag() string {
	if tag := l.Opts.Faults.Tag(); tag != "" {
		return "|" + tag
	}
	return ""
}

// MPPT runs (or recalls) a SolarCore day under the named Table 6 policy.
func (l *Lab) MPPT(site atmos.Site, season atmos.Season, mix workload.Mix, policy string) *sim.DayResult {
	key := fmt.Sprintf("%s|%s|%s|%s%s", site.Code, season, mix.Name, policy, l.faultTag())
	return l.cell(key, func() *sim.DayResult {
		alloc, ok := sched.ByName(policy)
		if !ok {
			panic("exp: unknown MPPT policy " + policy)
		}
		r, err := sim.RunMPPT(l.config(site, season, mix, false), alloc)
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", key, err))
		}
		return r
	})
}

// MPPTSeries is MPPT with the per-minute budget/actual trace retained (for
// Figures 13-14). Series runs are not cached.
func (l *Lab) MPPTSeries(site atmos.Site, season atmos.Season, mix workload.Mix, policy string) *sim.DayResult {
	alloc, ok := sched.ByName(policy)
	if !ok {
		panic("exp: unknown MPPT policy " + policy)
	}
	r, err := sim.RunMPPT(l.config(site, season, mix, true), alloc)
	if err != nil {
		panic(fmt.Sprintf("exp: series run: %v", err))
	}
	return r
}

// Fixed runs (or recalls) a Fixed-Power day at the given budget.
func (l *Lab) Fixed(site atmos.Site, season atmos.Season, mix workload.Mix, budgetW float64) *sim.DayResult {
	key := fmt.Sprintf("%s|%s|%s|fixed%g%s", site.Code, season, mix.Name, budgetW, l.faultTag())
	return l.cell(key, func() *sim.DayResult {
		r, err := sim.RunFixed(l.config(site, season, mix, false), budgetW)
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", key, err))
		}
		return r
	})
}

// Battery runs (or recalls) a battery-baseline day at the given overall
// conversion efficiency.
func (l *Lab) Battery(site atmos.Site, season atmos.Season, mix workload.Mix, eff float64) *sim.DayResult {
	key := fmt.Sprintf("%s|%s|%s|bat%g%s", site.Code, season, mix.Name, eff, l.faultTag())
	return l.cell(key, func() *sim.DayResult {
		r, err := sim.RunBattery(l.config(site, season, mix, false), eff)
		if err != nil {
			panic(fmt.Sprintf("exp: %s: %v", key, err))
		}
		return r
	})
}

// MPPTPolicies lists the Table 6 tracking policies in the paper's order.
var MPPTPolicies = []string{"MPPT&IC", "MPPT&RR", "MPPT&Opt"}

// BatteryEffs lists the Section 6.4 battery comparison brackets.
var BatteryEffs = []float64{power.BatteryUpperEff, power.BatteryLowerEff}

// Prefetch computes the full MPPT policy grid (site × season × mix ×
// policy) in parallel so that subsequent figure calls hit the cache.
func (l *Lab) Prefetch() {
	_ = l.PrefetchContext(context.Background())
}

// PrefetchContext is Prefetch under a cancellation context: when ctx is
// canceled the sweep stops scheduling new cells (already-running ones
// complete and stay cached) and the wrapped context error is returned. A
// cell that panics (a broken policy, a pathological day) is contained in
// its worker and surfaces as an error naming the cell; the rest of the
// grid still completes and stays cached.
func (l *Lab) PrefetchContext(ctx context.Context) error {
	type job struct {
		site   atmos.Site
		season atmos.Season
		mix    workload.Mix
		policy string
	}
	var jobs []job
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("exp: prefetch canceled: %w", err)
			}
			// Materialize days serially first: cheap, avoids duplicate work.
			l.Day(site, season)
			for _, mix := range l.Opts.Mixes() {
				for _, p := range MPPTPolicies {
					jobs = append(jobs, job{site, season, mix, p})
				}
			}
		}
	}
	var mu sync.Mutex
	var errs []error
	fed := par.Each(ctx, len(jobs), runtime.GOMAXPROCS(0), func(i int) {
		j := jobs[i]
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("exp: prefetch cell %s/%s/%s/%s: %v",
					j.site.Code, j.season, j.mix.Name, j.policy, r))
				mu.Unlock()
			}
		}()
		l.MPPT(j.site, j.season, j.mix, j.policy)
	})
	if fed < len(jobs) {
		errs = append(errs, ctx.Err())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("exp: prefetch: %w", err)
	}
	return nil
}
