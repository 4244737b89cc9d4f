package obs

// Metric names the Metrics observer maintains (DESIGN.md §10). Counters
// end in _total or carry their unit; histogram and gauge names carry
// their unit or declare themselves dimensionless.
const (
	// MetricRuns counts completed runs (RunEndEvents).
	MetricRuns = "runs_total"
	// MetricTicks and MetricSolarTicks count simulation sub-samples and
	// the subset that ran on the panel.
	MetricTicks      = "ticks_total"
	MetricSolarTicks = "solar_ticks_total"
	// MetricTracks and MetricOverloads count MPPT tracking sessions and
	// the subset that overloaded to the utility.
	MetricTracks    = "tracks_total"
	MetricOverloads = "track_overloads_total"
	// MetricAllocs counts per-core DVFS moves outside tracking sessions;
	// the raise/lower variants split them by direction.
	MetricAllocs      = "allocs_total"
	MetricAllocRaises = "allocs_raise_total"
	MetricAllocLowers = "allocs_lower_total"
	// MetricSolarWh / MetricUtilityWh / MetricSolarMin accumulate the
	// RunEndEvent energy and duration totals (Wh, Wh, min).
	MetricSolarWh   = "solar_wh_total"
	MetricUtilityWh = "utility_wh_total"
	MetricSolarMin  = "solar_min_total"
	// MetricTransitions and MetricATSSwitches accumulate DVFS level
	// changes and transfer-switch transitions.
	MetricTransitions = "dvfs_transitions_total"
	MetricATSSwitches = "ats_switches_total"
	// MetricTrackSteps is a histogram of tuning actions per tracking
	// session (count).
	MetricTrackSteps = "track_steps"
	// MetricTickErr is a histogram of the per-tick relative tracking
	// error |budget−demand|/budget over solar-powered ticks (ratio).
	MetricTickErr = "tick_err_ratio"
	// MetricTrackK is a gauge holding the last settled transfer ratio
	// (dimensionless).
	MetricTrackK = "track_k"
)

// Metrics returns an Observer that folds events into reg under the
// Metric* names, giving any run an expvar-style summary without storing
// the event stream. The observer inherits the registry's concurrency
// safety.
func Metrics(reg *Registry) Observer { return metricsObserver{reg} }

type metricsObserver struct{ reg *Registry }

// On implements Observer.
func (m metricsObserver) On(ev Event) {
	switch {
	case ev.Track != nil:
		m.reg.Add(MetricTracks, 1)
		if ev.Track.Overload {
			m.reg.Add(MetricOverloads, 1)
		}
		m.reg.Observe(MetricTrackSteps, float64(ev.Track.Steps))
		m.reg.Set(MetricTrackK, ev.Track.K)
	case ev.Alloc != nil:
		m.reg.Add(MetricAllocs, 1)
		if ev.Alloc.Dir > 0 {
			m.reg.Add(MetricAllocRaises, 1)
		} else {
			m.reg.Add(MetricAllocLowers, 1)
		}
	case ev.Tick != nil:
		tk := ev.Tick
		m.reg.Add(MetricTicks, 1)
		if tk.OnSolar {
			m.reg.Add(MetricSolarTicks, 1)
			if tk.BudgetW > 0 {
				err := tk.BudgetW - tk.DemandW
				if err < 0 {
					err = -err
				}
				m.reg.Observe(MetricTickErr, err/tk.BudgetW)
			}
		}
	case ev.RunEnd != nil:
		end := ev.RunEnd
		m.reg.Add(MetricRuns, 1)
		m.reg.Add(MetricSolarWh, end.SolarWh)
		m.reg.Add(MetricUtilityWh, end.UtilityWh)
		m.reg.Add(MetricSolarMin, end.SolarMin)
		m.reg.Add(MetricTransitions, float64(end.Transitions))
		m.reg.Add(MetricATSSwitches, float64(end.ATSSwitches))
		// Fault-path counters are only touched when non-zero so they stay
		// absent from clean-run snapshots (an Add materialises the counter).
		if end.BrownoutSheds > 0 {
			m.reg.Add(MetricBrownoutSheds, float64(end.BrownoutSheds))
		}
		if end.FallbackPeriods > 0 {
			m.reg.Add(MetricFallbackPeriods, float64(end.FallbackPeriods))
		}
		if end.SolverFaults > 0 {
			m.reg.Add(MetricSolverFaults, float64(end.SolverFaults))
		}
		if end.RecoveryMin > 0 {
			m.reg.Add(MetricRecoveryMin, end.RecoveryMin)
		}
	case ev.Fault != nil:
		if ev.Fault.Phase == FaultBegin {
			m.reg.Add(MetricFaults, 1)
		}
	case ev.Watchdog != nil:
		if ev.Watchdog.To == "fallback" && ev.Watchdog.From != "fallback" {
			m.reg.Add(MetricWatchdogTrips, 1)
		}
	}
}
