package fault

import (
	"math"
	"testing"

	"solarcore/internal/power"
)

// healthyStats is a period that must never look suspicious: converged
// well under budget with agreeing sensors.
func healthyStats(minute float64) PeriodStats {
	return PeriodStats{
		Minute: minute, Steps: 40, MaxSteps: 512,
		SensedW: 88, LoadW: 90, BudgetW: 100, MinLoadW: 10,
	}
}

func sickStats(minute float64) PeriodStats {
	st := healthyStats(minute)
	st.SensedW = 0 // sensors dead: wild sensed-vs-load divergence
	return st
}

func TestWatchdogDerateMatchesTable3(t *testing.T) {
	// The fallback de-rating is pinned to the Table 3 low-grade battery
	// system product tracked in internal/power.
	if got, want := Derate, power.BatteryLow.Derating(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Derate = %v, power.BatteryLow.Derating() = %v", got, want)
	}
}

func TestWatchdogStaysTrackingWhenHealthy(t *testing.T) {
	wd := &Watchdog{}
	for m := 0.0; m < 100; m += 10 {
		if mode := wd.Observe(healthyStats(m)); mode != ModeTracking {
			t.Fatalf("healthy run left tracking: %v at minute %v", mode, m)
		}
	}
	if wd.Trips() != 0 || wd.FallbackPeriods() != 0 || wd.RecoveryMin() != 0 {
		t.Errorf("healthy run accumulated counters: %+v trips=%d", wd, wd.Trips())
	}
}

func TestHealthyPredicateCleanEdgeCases(t *testing.T) {
	// Dawn/dusk overload: thin budget makes an overload legitimate.
	if !Healthy(PeriodStats{Minute: 0, Overload: true, BudgetW: 15, MinLoadW: 10, MaxSteps: 512}) {
		t.Error("dawn overload with thin budget judged unhealthy")
	}
	// Overload with a comfortable budget is a fault.
	if Healthy(PeriodStats{Minute: 0, Overload: true, BudgetW: 100, MinLoadW: 10, MaxSteps: 512}) {
		t.Error("overload with comfortable budget judged healthy")
	}
	// Protective-margin tracking gap stays healthy.
	if !Healthy(PeriodStats{Minute: 0, Steps: 30, MaxSteps: 512,
		SensedW: 69, LoadW: 70, BudgetW: 100, MinLoadW: 10}) {
		t.Error("margin-sized tracking gap judged unhealthy")
	}
	// Non-convergence: effort cap exhausted.
	if Healthy(PeriodStats{Minute: 0, Steps: 512, MaxSteps: 512,
		SensedW: 88, LoadW: 90, BudgetW: 100, MinLoadW: 10}) {
		t.Error("step-cap exhaustion judged healthy")
	}
	// Solver fault is always unhealthy.
	if Healthy(PeriodStats{Minute: 0, SolverFault: true, MaxSteps: 512,
		SensedW: 88, LoadW: 90, BudgetW: 100, MinLoadW: 10}) {
		t.Error("solver fault judged healthy")
	}
}

func TestWatchdogTripAndRecovery(t *testing.T) {
	wd := &Watchdog{} // trip 2, hold 3, recover 2
	m := 0.0
	next := func(st PeriodStats) Mode {
		st.Minute = m
		m += 10
		if wd.Mode() == ModeFallback {
			return wd.ObserveFallback(st.Minute)
		}
		return wd.Observe(st)
	}

	if mode := next(sickStats(0)); mode != ModeSuspect {
		t.Fatalf("after 1 sick period: %v, want suspect", mode)
	}
	if mode := next(sickStats(0)); mode != ModeSuspect {
		t.Fatalf("after 2 sick periods: %v, want suspect", mode)
	}
	if mode := next(sickStats(0)); mode != ModeFallback {
		t.Fatalf("after 3 sick periods: %v, want fallback (trip)", mode)
	}
	if wd.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", wd.Trips())
	}
	// Hold: 3 fallback periods, then probe.
	next(healthyStats(0))
	next(healthyStats(0))
	if mode := next(healthyStats(0)); mode != ModeRecovering {
		t.Fatalf("after hold: %v, want recovering", mode)
	}
	if wd.FallbackPeriods() != 3 {
		t.Fatalf("fallback periods = %d, want 3", wd.FallbackPeriods())
	}
	// Two healthy probes graduate back to tracking.
	if mode := next(healthyStats(0)); mode != ModeRecovering {
		t.Fatalf("after 1 healthy probe: %v, want recovering", mode)
	}
	if mode := next(healthyStats(0)); mode != ModeTracking {
		t.Fatalf("after 2 healthy probes: %v, want tracking", mode)
	}
	// Recovery time: tripped at minute 20, recovered at minute 70.
	if got := wd.RecoveryMin(); got != 50 {
		t.Errorf("recovery min = %v, want 50", got)
	}
}

func TestWatchdogRelapse(t *testing.T) {
	wd := &Watchdog{} // trip 2, hold 3, recover 2
	m := 0.0
	obs := func(st PeriodStats) Mode {
		st.Minute = m
		m += 10
		if wd.Mode() == ModeFallback {
			return wd.ObserveFallback(st.Minute)
		}
		return wd.Observe(st)
	}
	for i := 0; i < 3; i++ {
		obs(sickStats(0)) // suspect, suspect, trip -> fallback
	}
	if wd.Mode() != ModeFallback {
		t.Fatalf("not in fallback: %v", wd.Mode())
	}
	for i := 0; i < 3; i++ {
		obs(healthyStats(0)) // the third held period elapses the hold -> recovering
	}
	if wd.Mode() != ModeRecovering {
		t.Fatalf("not recovering: %v", wd.Mode())
	}
	if mode := obs(sickStats(0)); mode != ModeFallback {
		t.Fatalf("relapse from recovering: %v, want fallback", mode)
	}
	if wd.Trips() != 2 {
		t.Errorf("trips = %d, want 2 (relapse counts)", wd.Trips())
	}
	// A relapse extends the original incident: recovery not yet recorded.
	if wd.RecoveryMin() != 0 {
		t.Errorf("open incident already recorded recovery: %v", wd.RecoveryMin())
	}
}

func TestSuspectRecoversWithoutTrip(t *testing.T) {
	wd := &Watchdog{}
	wd.Observe(sickStats(0))
	if wd.Mode() != ModeSuspect {
		t.Fatalf("not suspect: %v", wd.Mode())
	}
	wd.Observe(healthyStats(10))
	if wd.Mode() != ModeTracking {
		t.Fatalf("one healthy period did not clear suspicion: %v", wd.Mode())
	}
	if wd.Trips() != 0 {
		t.Errorf("transient suspicion tripped: %d", wd.Trips())
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		ModeTracking: "tracking", ModeSuspect: "suspect",
		ModeFallback: "fallback", ModeRecovering: "recovering", Mode(99): "unknown",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
}
