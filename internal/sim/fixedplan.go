package sim

import (
	"math"
	"slices"

	"solarcore/internal/atmos"
	"solarcore/internal/lru"
	"solarcore/internal/mcore"
	"solarcore/internal/sched"
)

// A clean Fixed-Power day plans the chip from the mix, the chip config
// and the budget alone: it never reads the weather. So RunFixed plans
// each (mix, chip, budget, step, period, window) once per process and
// replays the plan against each day's solar power (DESIGN.md §4).

// planSample is the planned chip at one sub-sample: what it draws and
// what it commits.
type planSample struct {
	demandW float64 // unit: W
	gips    float64 // unit: GIPS
}

// fixedPlan is one clean Fixed-Power day's planned chip, one sample per
// sub-sample in the run's loop order. It is shared and immutable. It
// keeps the programs and the chip config it was planned for, which its
// key does not cover.
type fixedPlan struct {
	programs []string
	chip     mcore.Config
	samples  []planSample
}

// planKey names a plan by the mix name and the bits of the scalars the
// plan reads; bits, so a NaN key finds itself.
type planKey struct {
	mix                              string
	budget, step, period, start, end uint64
}

const (
	// planMaxSamples bounds the sub-samples of a memoized plan at four
	// step-1 days (about 38 KB a plan). A finer day runs live: StepMin
	// has no lower bound, and a plan's fill takes no context.
	planMaxSamples = 4 * (atmos.DayMinutes + 1)
	// fixedPlanCap bounds the process-wide plans (about 9.6 KB each at
	// step 1): one budget for every Table 5 mix, or three mixes' five
	// paper budgets. The paper grid's 50 plans do not all stay resident;
	// exp.Lab's prefetch runs the Fixed-Power cells plan by plan, so a
	// grid fills each once. Keeping all 50 raised the grid's peak RSS by
	// about 15 %: the Go heap goal is twice the live heap.
	fixedPlanCap = 16
)

// fixedPlans memoizes one plan per key for the process.
var fixedPlans = lru.New[planKey, *fixedPlan](fixedPlanCap)

// planFor returns the plan of a clean Fixed-Power day of cfg (defaulted)
// at budgetW from plans, filling it on a miss. It returns nil, and the
// run samples the chip live, when the day has too many sub-samples or
// the plan under the key was made for other programs or another chip.
//
// unit: budgetW=W
func planFor(plans *lru.Cache[planKey, *fixedPlan], cfg *Config, budgetW float64) *fixedPlan {
	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	span := end - start
	// n bounds the day's sub-samples: its periods times a whole period's.
	n := math.Ceil(span/cfg.TrackPeriodMin) * math.Ceil(math.Min(cfg.TrackPeriodMin, span)/cfg.StepMin)
	if !(n <= planMaxSamples) {
		return nil
	}
	key := planKey{cfg.Mix.Name, math.Float64bits(budgetW), math.Float64bits(cfg.StepMin),
		math.Float64bits(cfg.TrackPeriodMin), math.Float64bits(start), math.Float64bits(end)}
	p, _, err := plans.Do(key, nil, func() (*fixedPlan, error) {
		return fillPlan(cfg, budgetW, int(n))
	})
	if err != nil || !slices.Equal(p.programs, cfg.Mix.Programs) || !sameChip(p.chip, cfg.Chip) {
		return nil
	}
	return p
}

// fillPlan samples a fresh chip the way the live day does: at each
// period start it plans the chip against budgetW (greedy LP, Table 6),
// then it samples every sub-sample of the period.
//
// unit: budgetW=W
func fillPlan(cfg *Config, budgetW float64, n int) (*fixedPlan, error) {
	chip, err := mcore.NewChip(cfg.Chip)
	if err != nil {
		return nil, err
	}
	if err := cfg.Mix.Apply(chip); err != nil {
		return nil, err
	}
	p := &fixedPlan{
		programs: slices.Clone(cfg.Mix.Programs),
		chip:     cfg.Chip,
		samples:  make([]planSample, 0, n),
	}
	p.chip.Points = slices.Clone(cfg.Chip.Points)
	p.chip.Classes = slices.Clone(cfg.Chip.Classes)
	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	for t0 := start; t0 < end; t0 += cfg.TrackPeriodMin {
		t1 := math.Min(t0+cfg.TrackPeriodMin, end)
		chip.At(t0)
		sched.PlanBudget(chip, budgetW)
		for t := t0; t < t1-1e-9; t += cfg.StepMin {
			if t > t0 {
				chip.At(t)
			}
			p.samples = append(p.samples, planSample{chip.Power(), chip.Throughput()})
		}
	}
	return p, nil
}

// sameChip reports whether a and b describe the same chip bit for bit.
// Operating points and core classes are positive by mcore.Config's
// validation, so == on them is bit equality (a NaN differs, which only
// means a live day).
func sameChip(a, b mcore.Config) bool {
	return a.Cores == b.Cores && sameBits(a.LeakWPerV, b.LeakWPerV) &&
		sameBits(a.ActiveWatts, b.ActiveWatts) &&
		slices.Equal(a.Points, b.Points) && slices.Equal(a.Classes, b.Classes)
}

// sameBits reports whether x and y are the same float64 bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
