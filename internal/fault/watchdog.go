package fault

import "math"

// Mode is a watchdog state: the MPPT supervision state machine
//
//	Tracking ──unhealthy──▶ Suspect ──N consecutive──▶ Fallback
//	   ▲                       │                          │
//	   │◀────────healthy───────┘                     hold elapses
//	   │                                                  ▼
//	   └──────M consecutive healthy──────────────── Recovering
//	                                                      │
//	                                                unhealthy again
//	                                                      ▼
//	                                                  Fallback
//
// documented with its transition conditions in DESIGN.md §11.
type Mode int

// The watchdog states.
const (
	// ModeTracking is normal MPPT operation.
	ModeTracking Mode = iota
	// ModeSuspect is tracking under suspicion: one or more unhealthy
	// periods observed, not yet enough to trip.
	ModeSuspect
	// ModeFallback abandons tracking for the de-rated Fixed-Power
	// budget (Table 3 de-rating): the engine plans the chip against
	// Derate × the clean budget and stops consulting the controller.
	ModeFallback
	// ModeRecovering probes tracking again after the fallback hold;
	// consecutive healthy periods graduate back to ModeTracking, one
	// unhealthy period trips straight back to ModeFallback.
	ModeRecovering
)

// String names the mode for events and rendering.
func (m Mode) String() string {
	switch m {
	case ModeTracking:
		return "tracking"
	case ModeSuspect:
		return "suspect"
	case ModeFallback:
		return "fallback"
	case ModeRecovering:
		return "recovering"
	}
	return "unknown"
}

// The supervision thresholds. Derate is exported for the engine, which
// plans the fallback period against it.
const (
	// tripPeriods consecutive unhealthy periods in Suspect trip Fallback:
	// with the period that entered Suspect, three bad periods in all.
	tripPeriods = 2
	// holdPeriods is how long Fallback holds before Recovering probes.
	holdPeriods = 3
	// recoverPeriods consecutive healthy probes return to Tracking.
	recoverPeriods = 2
	// errTolerance is the relative budget-vs-delivered-load mismatch
	// beyond which a period counts unhealthy; clean runs sit well inside
	// it even with the protective margin shed, once the budget is above
	// thinBudgetLoads minimal loads.
	//
	// unit: ratio
	errTolerance = 0.5
	// thinBudgetLoads is the budget, in minimal chip loads, below which
	// the tracking gap is not judged: the protective margin (two DVFS
	// steps by default) and one discrete load step can leave a clean
	// session that far under a thin budget, or with every core gated.
	//
	// unit: ratio
	thinBudgetLoads = 4
	// senseTolerance is the relative sensed-vs-actual load mismatch
	// beyond which a period counts unhealthy; the configured benign
	// sensor noise stays in single digits.
	//
	// unit: ratio
	senseTolerance = 0.25
	// Derate is the Fixed-Power fallback budget factor: the Table 3
	// low-grade battery-system de-rating, 0.93 tracking × 0.75 round
	// trip ≈ 0.70, the floor a degraded standalone system still
	// achieves. It mirrors power.BatteryLow.Derating() without importing
	// it; TestWatchdogDerateMatchesTable3 pins the equality.
	//
	// unit: ratio
	Derate = 0.93 * 0.75
)

// PeriodStats is one tracking period's health evidence, fed to Observe.
type PeriodStats struct {
	// Minute is the period start, for transition events and recovery
	// timing.
	//
	// unit: min
	Minute float64
	// Overload reports the controller declared the panel unable to
	// carry any load this period.
	Overload bool
	// Steps and MaxSteps are the tuning actions consumed and the
	// session cap; hitting the cap is the non-convergence signal.
	Steps, MaxSteps int
	// SensedW is the load power the controller's sensors report.
	//
	// unit: W
	SensedW float64
	// LoadW is the load power the circuit really delivers at the settled
	// operating point: the reading before sensor noise and sensor
	// faults, which SensedW is judged against. It differs from the chip's
	// demand at nominal when the rail settles off nominal, as at dawn.
	//
	// unit: W
	LoadW float64
	// BudgetW is the clean post-conversion available power.
	//
	// unit: W
	BudgetW float64
	// MinLoadW is the lightest non-gated chip configuration — budgets
	// below it make an overload legitimate, not a fault.
	//
	// unit: W
	MinLoadW float64
	// SolverFault reports a typed solver fault hit this period.
	SolverFault bool
}

// Healthy applies the watchdog's health predicate to one period. The
// conditions are chosen so a fault-free run never looks unhealthy:
// dawn/dusk overloads (budget under twice the minimal load) and the
// protective-margin tracking gap stay healthy, and both the tracking gap
// and the sensors are judged against the load power the circuit really
// delivers (LoadW), which exceeds the demand at nominal when the rail
// settles high, as at dawn.
func Healthy(st PeriodStats) bool {
	if st.SolverFault {
		return false
	}
	if st.MaxSteps > 0 && st.Steps >= st.MaxSteps {
		return false // non-convergence / oscillation: effort cap exhausted
	}
	if st.Overload {
		// An overload with comfortable budget is a fault; with a thin
		// budget it is dawn/dusk physics.
		return st.BudgetW < 2*st.MinLoadW
	}
	if st.BudgetW > 0 && st.BudgetW >= thinBudgetLoads*st.MinLoadW {
		if math.Abs(st.BudgetW-st.LoadW)/st.BudgetW > errTolerance {
			return false // settled nowhere near the available power
		}
	}
	if ref := math.Max(st.LoadW, st.SensedW); ref > 0 {
		if math.Abs(st.LoadW-st.SensedW)/ref > senseTolerance {
			return false // the sensors and the load disagree wildly
		}
	}
	return true
}

// Watchdog is the per-run supervision state machine. It is driven at
// tracking-period granularity by Observe (normal periods) and
// ObserveFallback (periods spent in fallback), and exposes the counters
// the observability layer reports. The zero value is ready in
// ModeTracking.
type Watchdog struct {
	mode Mode

	unhealthy int // consecutive unhealthy periods in Suspect
	held      int // periods spent in the current Fallback
	recovered int // consecutive healthy probes in Recovering

	trips           int
	fallbackPeriods int
	tripMinute      float64 // unit: min
	recoveryMin     float64 // unit: min
	inIncident      bool
}

// Mode returns the current state.
func (w *Watchdog) Mode() Mode { return w.mode }

// Trips counts Fallback entries so far.
func (w *Watchdog) Trips() int { return w.trips }

// FallbackPeriods counts tracking periods spent in Fallback so far.
func (w *Watchdog) FallbackPeriods() int { return w.fallbackPeriods }

// RecoveryMin totals the minutes from each Fallback trip to the
// re-entry into Tracking (still-open incidents are not counted).
//
// unit: min
func (w *Watchdog) RecoveryMin() float64 { return w.recoveryMin }

// Observe advances the state machine with one tracked period's evidence
// and returns the mode the NEXT period should run under. Call it only
// for periods that actually ran the tracking controller (Tracking,
// Suspect, Recovering); fallback periods go through ObserveFallback.
func (w *Watchdog) Observe(st PeriodStats) Mode {
	healthy := Healthy(st)
	switch w.mode {
	case ModeTracking:
		if !healthy {
			w.mode = ModeSuspect
			w.unhealthy = 1
		}
	case ModeSuspect:
		if healthy {
			w.mode = ModeTracking
			w.unhealthy = 0
		} else if w.unhealthy++; w.unhealthy > tripPeriods {
			w.trip(st.Minute)
		}
	case ModeRecovering:
		if !healthy {
			w.trip(st.Minute)
		} else if w.recovered++; w.recovered >= recoverPeriods {
			w.mode = ModeTracking
			w.recovered = 0
			if w.inIncident {
				w.recoveryMin += st.Minute - w.tripMinute
				w.inIncident = false
			}
		}
	case ModeFallback:
		// Tolerate the call: treat as a fallback period.
		return w.ObserveFallback(st.Minute)
	}
	return w.mode
}

// trip enters Fallback, opening an incident if none is running (a
// relapse from Recovering extends the original incident).
//
// unit: minute=min
func (w *Watchdog) trip(minute float64) {
	w.mode = ModeFallback
	w.trips++
	w.unhealthy = 0
	w.recovered = 0
	w.held = 0
	if !w.inIncident {
		w.inIncident = true
		w.tripMinute = minute
	}
}

// ObserveFallback accounts one period spent in Fallback and returns the
// mode the next period should run under: Fallback until the hold
// elapses, then Recovering.
//
// unit: minute=min
func (w *Watchdog) ObserveFallback(minute float64) Mode {
	w.fallbackPeriods++
	if w.held++; w.held >= holdPeriods {
		w.mode = ModeRecovering
		w.recovered = 0
	}
	return w.mode
}
