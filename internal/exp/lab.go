// Package exp regenerates every table and figure of the paper's evaluation
// (Section 6). Each experiment is a function that returns typed data plus a
// Render method producing the ASCII equivalent of the paper's plot; the
// experiment index in DESIGN.md maps paper figure/table numbers to these
// functions, and cmd/experiments drives them all. The paper's grid cells
// run through a Lab as solarcore.RunSpecs, so a figure's cell and a
// served run of the same spec share one identity and one day cache.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"solarcore"
	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/lru"
	"solarcore/internal/obs"
	"solarcore/internal/par"
	"solarcore/internal/power"
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
	// Faults, when non-empty, is the fault schedule (fault.ParseSpec
	// grammar) applied to every run the lab performs. It is the cells'
	// RunSpec.Faults, so it is part of every cell's identity and one
	// process can run faulted and clean labs without cross-talk.
	Faults string
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
	// MetricLabDays counts the solar days this lab built (weather
	// synthesis + MPP profile precomputation): its misses of the
	// process-wide day cache.
	MetricLabDays = "lab_days_built_total"
)

// labCells caps the Lab's cell cache: larger than the full site × season
// × mix × policy × budget grid, so the paper's experiments never evict,
// while arbitrarily long sweeps stay within a fixed memory budget.
const labCells = 4096

// Lab caches simulation runs so that the many experiments sharing the
// site × season × mix × policy grid compute each run once. Every cached
// cell is a solarcore.RunSpec run through spec.Runner, keyed by
// spec.Hash, so a Lab cell and a served run of the same spec are one
// identity with identical results. Days come from the process-wide day
// cache (sim.CachedDay) that RunSpec.Runner also uses. All methods are
// safe for concurrent use. The lab keeps an obs.Registry of cache
// hit/miss counters, days built and per-cell wall-time histograms;
// Metrics exports it.
type Lab struct {
	Opts Options

	runs *lru.Cache[string, *sim.DayResult]
	reg  *obs.Registry
}

// NewLab builds an empty lab.
func NewLab(opts Options) *Lab {
	return &Lab{
		Opts: opts,
		runs: lru.New[string, *sim.DayResult](labCells),
		reg:  obs.NewRegistry(),
	}
}

// Metrics exports the lab's cache and wall-time metrics.
func (l *Lab) Metrics() obs.Snapshot { return l.reg.Snapshot() }

// Day returns the (cached) solar day for a site and season: the synthetic
// weather trace bound to one BP3180N module.
func (l *Lab) Day(site atmos.Site, season atmos.Season) *sim.SolarDay {
	d, built, err := sim.CachedDay(site, season, l.Opts.Day, 1)
	if err != nil {
		panic(fmt.Sprintf("exp: building solar day %s%s: %v", site.Code, season, err))
	}
	if built {
		l.reg.Add(MetricLabDays, 1)
	}
	return d
}

// cell serves the lab's run of mix on the site's season day, in the mode
// set selects, as a solarcore.RunSpec cached under its Hash; concurrent
// callers share one run. The run records a miss and its wall time, every
// other caller a hit.
func (l *Lab) cell(site atmos.Site, season atmos.Season, mix workload.Mix, set func(*solarcore.RunSpec)) *sim.DayResult {
	spec := solarcore.RunSpec{Site: site.Code, Season: season.String(), Mix: mix.Name,
		Day: l.Opts.Day, StepMin: l.Opts.stepMin(), Faults: l.Opts.Faults}
	set(&spec)
	r, disp, err := l.runs.Do(spec.Hash(), nil, func() (*sim.DayResult, error) {
		l.reg.Add(MetricLabMisses, 1)
		start := time.Now()
		l.Day(site, season) // counts the build when this cell finds its day cold
		runner, err := spec.Runner()
		if err != nil {
			return nil, err
		}
		r, err := runner.Run()
		if err == nil {
			l.reg.Observe(MetricLabCellMs, time.Since(start).Seconds()*1000)
		}
		return r, err
	})
	if disp != lru.Led {
		l.reg.Add(MetricLabHits, 1)
	}
	if err != nil {
		panic(fmt.Sprintf("exp: %s: %v", spec.Canonical(), err))
	}
	return r
}

// MPPT runs (or recalls) a SolarCore day under the named Table 6 policy.
func (l *Lab) MPPT(site atmos.Site, season atmos.Season, mix workload.Mix, policy string) *sim.DayResult {
	return l.cell(site, season, mix, func(s *solarcore.RunSpec) { s.Policy = policy })
}

// MPPTSeries is MPPT with the per-minute budget/actual trace retained (for
// Figures 13-14). Series runs are not cached.
func (l *Lab) MPPTSeries(site atmos.Site, season atmos.Season, mix workload.Mix, policy string) *sim.DayResult {
	alloc, ok := sched.ByName(policy)
	if !ok {
		panic("exp: unknown MPPT policy " + policy)
	}
	faults, err := fault.ParseSpec(l.Opts.Faults)
	if err != nil {
		panic(fmt.Sprintf("exp: series run: %v", err))
	}
	cfg := sim.Config{Day: l.Day(site, season), Mix: mix, StepMin: l.Opts.stepMin(), KeepSeries: true, Faults: faults}
	r, err := sim.RunMPPT(cfg, alloc)
	if err != nil {
		panic(fmt.Sprintf("exp: series run: %v", err))
	}
	return r
}

// Fixed runs (or recalls) a Fixed-Power day at the given budget, which
// must be positive: it is the cell's RunSpec.FixedW.
func (l *Lab) Fixed(site atmos.Site, season atmos.Season, mix workload.Mix, budgetW float64) *sim.DayResult {
	return l.cell(site, season, mix, func(s *solarcore.RunSpec) { s.FixedW = budgetW })
}

// Battery runs (or recalls) a battery-baseline day at the given overall
// conversion efficiency in (0, 1]: the cell's RunSpec.BatteryEff.
func (l *Lab) Battery(site atmos.Site, season atmos.Season, mix workload.Mix, eff float64) *sim.DayResult {
	return l.cell(site, season, mix, func(s *solarcore.RunSpec) { s.BatteryEff = eff })
}

// MPPTPolicies lists the Table 6 tracking policies in the paper's order.
var MPPTPolicies = []string{"MPPT&IC", "MPPT&RR", "MPPT&Opt"}

// BatteryEffs lists the Section 6.4 battery comparison brackets.
var BatteryEffs = []float64{power.BatteryUpperEff, power.BatteryLowerEff}

// Prefetch computes every cell the paper's figures read in parallel: the
// MPPT policy grid (site × season × mix × policy), the Fixed-Power
// budgets of Figures 15-17 (Figure 15's mix included when the grid lacks
// it) and the battery brackets of Figure 21, so that subsequent figure
// calls hit the cache.
func (l *Lab) Prefetch() { l.prefetchDetached(true) }

// prefetchDetached is the prefetch of Prefetch and Robustness, which no
// caller cancels.
func (l *Lab) prefetchDetached(fixed bool) { _ = l.prefetch(context.Background(), fixed) }

// prefetchCell is one grid cell Prefetch schedules: an MPPT policy run,
// or a Fixed-Power or battery run when fixedW or eff is set.
type prefetchCell struct {
	site   atmos.Site
	season atmos.Season
	mix    workload.Mix
	policy string
	fixedW float64 // unit: W
	eff    float64 // unit: ratio
}

// run computes (or recalls) the cell.
func (c prefetchCell) run(l *Lab) {
	switch {
	case c.fixedW > 0:
		l.Fixed(c.site, c.season, c.mix, c.fixedW)
	case c.eff > 0:
		l.Battery(c.site, c.season, c.mix, c.eff)
	default:
		l.MPPT(c.site, c.season, c.mix, c.policy)
	}
}

// String names the cell in a prefetch error.
func (c prefetchCell) String() string {
	mode := c.policy
	switch {
	case c.fixedW > 0:
		mode = fmt.Sprintf("Fixed-Power(%gW)", c.fixedW)
	case c.eff > 0:
		mode = fmt.Sprintf("Battery(%g)", c.eff)
	}
	return fmt.Sprintf("%s/%s/%s/%s", c.site.Code, c.season, c.mix.Name, mode)
}

// PrefetchContext is Prefetch under a cancellation context: when ctx is
// canceled the sweep stops scheduling new cells (already-running ones
// complete and stay cached) and the wrapped context error is returned. A
// cell that panics (a broken policy, a pathological day) is contained in
// its worker and surfaces as an error naming the cell; the rest of the
// grid still completes and stays cached. The MPPT cells, the costliest,
// are scheduled first.
func (l *Lab) PrefetchContext(ctx context.Context) error { return l.prefetch(ctx, true) }

// prefetch runs PrefetchContext's grid; without fixed it leaves out the
// Fixed-Power cells, which only Figures 15-17 read.
func (l *Lab) prefetch(ctx context.Context, fixed bool) error {
	mixes := l.Opts.Mixes()
	var fixedMixes []workload.Mix
	if fixed {
		fixedMixes = mixes
		if !slices.ContainsFunc(mixes, func(m workload.Mix) bool { return m.Name == figure15Mix }) {
			m, _ := workload.MixByName(figure15Mix)
			fixedMixes = append(slices.Clip(mixes), m)
		}
	}
	var mppt, rest []prefetchCell
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			for _, mix := range mixes {
				for _, p := range MPPTPolicies {
					mppt = append(mppt, prefetchCell{site: site, season: season, mix: mix, policy: p})
				}
				for _, e := range BatteryEffs {
					rest = append(rest, prefetchCell{site: site, season: season, mix: mix, eff: e})
				}
			}
		}
	}
	// A clean Fixed-Power day replays its (mix, budget) plan, and the
	// process keeps only a few plans (sim.RunFixed), so the Fixed-Power
	// cells run plan by plan, each across every site and season.
	for _, mix := range fixedMixes {
		for _, w := range FixedBudgets {
			for _, site := range atmos.Sites {
				for _, season := range atmos.Seasons {
					rest = append(rest, prefetchCell{site: site, season: season, mix: mix, fixedW: w})
				}
			}
		}
	}
	jobs := append(mppt, rest...)
	var mu sync.Mutex
	var errs []error
	fed := par.Each(ctx, len(jobs), runtime.GOMAXPROCS(0), func(i int) {
		j := jobs[i]
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				errs = append(errs, fmt.Errorf("exp: prefetch cell %s: %v", j, r))
				mu.Unlock()
			}
		}()
		j.run(l)
	})
	if fed < len(jobs) {
		errs = append(errs, ctx.Err())
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("exp: prefetch: %w", err)
	}
	return nil
}
