package exp

import (
	"strings"
	"testing"
)

func TestAblationMargin(t *testing.T) {
	l := quickLab(t)
	a := AblationMargin(l)
	if len(a.Rows) != 5 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// More margin must not raise utilization.
	if a.Rows[0].Utilization < a.Rows[len(a.Rows)-1].Utilization {
		t.Errorf("no-margin utilization %.3f below 4-step %.3f",
			a.Rows[0].Utilization, a.Rows[len(a.Rows)-1].Utilization)
	}
	if !strings.Contains(a.Render(), "margin") {
		t.Error("render missing knob")
	}
}

func TestAblationTrackingPeriod(t *testing.T) {
	l := quickLab(t)
	a := AblationTrackingPeriod(l)
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// With continuous mid-period load adaptation the tracking period is a
	// second-order knob: the sweep must stay productive and within a small
	// utilization band (this insensitivity is itself the finding — the
	// periodic session mostly re-seats the converter ratio).
	lo, hi := 1.0, 0.0
	for _, r := range a.Rows {
		if r.Utilization < lo {
			lo = r.Utilization
		}
		if r.Utilization > hi {
			hi = r.Utilization
		}
		if r.PTP <= 0 {
			t.Errorf("%s: empty run", r.Label)
		}
	}
	if hi-lo > 0.05 {
		t.Errorf("tracking-period sweep spread %.3f, want < 0.05", hi-lo)
	}
}

func TestAblationDVFSGranularity(t *testing.T) {
	l := quickLab(t)
	a := AblationDVFSGranularity(l)
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// Section 6.3: finer DVFS should not worsen tracking error; compare the
	// 3-level and 24-level extremes.
	if a.Rows[3].TrackErr > a.Rows[0].TrackErr+0.01 {
		t.Errorf("24-level error %.3f above 3-level %.3f", a.Rows[3].TrackErr, a.Rows[0].TrackErr)
	}
	for _, r := range a.Rows {
		if r.Utilization <= 0 || r.PTP <= 0 {
			t.Errorf("%s produced empty run", r.Label)
		}
	}
}

func TestAblationDeltaK(t *testing.T) {
	l := quickLab(t)
	a := AblationDeltaK(l)
	for _, r := range a.Rows {
		if r.Utilization < 0.5 {
			t.Errorf("%s: utilization %.3f — tracking broke", r.Label, r.Utilization)
		}
	}
}

func TestAblationSensorNoise(t *testing.T) {
	l := quickLab(t)
	a := AblationSensorNoise(l)
	if len(a.Rows) != 5 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	clean, worst := a.Rows[0], a.Rows[len(a.Rows)-1]
	if worst.Utilization > clean.Utilization+0.02 {
		t.Errorf("±4%% sensors (%.3f) should not beat ideal sensors (%.3f)",
			worst.Utilization, clean.Utilization)
	}
	// Even ±4 % sensors keep the system productive.
	if worst.Utilization < 0.5 {
		t.Errorf("tracking collapsed under sensor noise: %.3f", worst.Utilization)
	}
}

func TestTrackerComparison(t *testing.T) {
	l := quickLab(t)
	tc := TrackerComparison(l)
	if len(tc.Rows) != 4 { // P&O, IncCond, FracVoc, SolarCore
		t.Fatalf("rows = %d", len(tc.Rows))
	}
	var solarcoreRow *TrackerComparisonRow
	for i := range tc.Rows {
		r := &tc.Rows[i]
		if r.Efficiency <= 0 || r.Efficiency > 1.001 {
			t.Errorf("%s: efficiency %.3f", r.Algorithm, r.Efficiency)
		}
		if r.Algorithm == "SolarCore" {
			solarcoreRow = r
		}
	}
	if solarcoreRow == nil {
		t.Fatal("SolarCore row missing")
	}
	// The point of the comparison: every conventional tracker lets the rail
	// wander far more than SolarCore's regulated band.
	for _, r := range tc.Rows {
		if r.Algorithm == "SolarCore" {
			continue
		}
		if r.RailExcursion < 2*solarcoreRow.RailExcursion {
			t.Errorf("%s rail excursion %.3f not well above SolarCore's %.3f",
				r.Algorithm, r.RailExcursion, solarcoreRow.RailExcursion)
		}
	}
	if !strings.Contains(tc.Render(), "SolarCore") {
		t.Error("render missing SolarCore row")
	}
}

func TestAblationEventTracking(t *testing.T) {
	l := quickLab(t)
	a := AblationEventTracking(l)
	if len(a.Rows) != 2 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	periodic, event := a.Rows[0], a.Rows[1]
	// Event-triggered tracking reacts to cloud edges; it must not be
	// meaningfully worse than periodic tracking.
	if event.Utilization < periodic.Utilization-0.02 {
		t.Errorf("event-triggered %.3f clearly below periodic %.3f",
			event.Utilization, periodic.Utilization)
	}
	if event.PTP <= 0 {
		t.Error("event-triggered run empty")
	}
}

func TestForecastStudy(t *testing.T) {
	l := quickLab(t)
	fs := ForecastStudy(l)
	if len(fs.Patterns) != 16 || len(fs.Forecasters) != 3 {
		t.Fatalf("grid %dx%d", len(fs.Patterns), len(fs.Forecasters))
	}
	for i, row := range fs.RelMAE {
		for fi, v := range row {
			if v < 0 || v > 1 {
				t.Errorf("%s/%s: relative MAE %v implausible", fs.Patterns[i], fs.Forecasters[fi], v)
			}
		}
	}
	if fs.Best() == "" {
		t.Error("no best forecaster")
	}
	if !strings.Contains(fs.Render(), "Forecast study") {
		t.Error("render missing title")
	}
}

func TestRobustnessAcrossWeatherDays(t *testing.T) {
	r := Robustness(Options{Quick: true}, 3)
	if len(r.Days) != 3 {
		t.Fatalf("days = %d", len(r.Days))
	}
	for i := range r.Days {
		if r.OptOverRR[i] <= 0 || r.OptOverIC[i] <= 0 {
			t.Errorf("policy ordering unstable on day %d: %+v", i, r)
		}
	}
	for i, u := range r.Utilization {
		if u < 0.75 || u > 0.95 {
			t.Errorf("day %d utilization %.3f outside the expected regime", i, u)
		}
	}
	if !strings.Contains(r.Render(), "mean") {
		t.Error("render missing summary row")
	}
}

func TestAblationThermal(t *testing.T) {
	l := quickLab(t)
	a := AblationThermal(l)
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d", len(a.Rows))
	}
	// The strictest trip point must cost PTP relative to unconstrained.
	if a.Rows[3].PTP >= a.Rows[0].PTP {
		t.Errorf("75°C cap PTP %v not below unconstrained %v", a.Rows[3].PTP, a.Rows[0].PTP)
	}
	if !strings.Contains(a.Rows[3].Label, "throttles") {
		t.Errorf("label missing throttle count: %q", a.Rows[3].Label)
	}
}

func TestConsolidationStudy(t *testing.T) {
	c := ConsolidationStudy()
	if len(c.Rows) != 5 {
		t.Fatalf("rows = %d", len(c.Rows))
	}
	for _, r := range c.Rows {
		if r.ActiveOverhead > r.ActiveFree {
			t.Errorf("budget %.0f: overhead cluster uses MORE nodes (%v vs %v)",
				r.BudgetW, r.ActiveOverhead, r.ActiveFree)
		}
		if r.ThroughputOver > r.ThroughputFree+1e-9 {
			t.Errorf("budget %.0f: overhead cluster outperforms free one", r.BudgetW)
		}
	}
	// Active nodes must grow with budget (both variants).
	first, last := c.Rows[0], c.Rows[len(c.Rows)-1]
	if last.ActiveOverhead < first.ActiveOverhead || last.ActiveFree < first.ActiveFree {
		t.Error("active nodes should grow with budget")
	}
	if !strings.Contains(c.Render(), "consolidation") {
		t.Error("render missing title")
	}
}

func TestSustainability(t *testing.T) {
	l := quickLab(t)
	s := Sustainability(l)
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for _, r := range s.Rows {
		if r.CarbonReduction < 0.4 || r.CarbonReduction > 1 {
			t.Errorf("%s: carbon reduction %.2f implausible", r.Site, r.CarbonReduction)
		}
		if r.SavedKgPerDay <= 0 || r.SavedUSDPerYear <= 0 {
			t.Errorf("%s: no savings", r.Site)
		}
	}
	// The best solar resource eliminates the most footprint.
	if s.Rows[0].CarbonReduction <= s.Rows[3].CarbonReduction {
		t.Errorf("AZ (%.2f) should beat TN (%.2f)", s.Rows[0].CarbonReduction, s.Rows[3].CarbonReduction)
	}
	if !strings.Contains(s.Render(), "Sustainability") {
		t.Error("render missing title")
	}
}

func TestMountStudy(t *testing.T) {
	l := quickLab(t)
	m := MountStudy(l)
	if len(m.Rows) != 4 {
		t.Fatalf("rows = %d", len(m.Rows))
	}
	for _, r := range m.Rows {
		if r.EnergyGain < 0.05 || r.EnergyGain > 0.45 {
			t.Errorf("%s: tracker energy gain %.3f implausible", r.Site, r.EnergyGain)
		}
		if r.PTPGain < -0.02 {
			t.Errorf("%s: tracker lost performance (%.3f)", r.Site, r.PTPGain)
		}
		// A chip-limited system cannot convert every extra panel watt.
		if r.PTPGain > r.EnergyGain+0.05 {
			t.Errorf("%s: PTP gain %.3f exceeds energy gain %.3f", r.Site, r.PTPGain, r.EnergyGain)
		}
	}
	if !strings.Contains(m.Render(), "Mount study") {
		t.Error("render missing title")
	}
}
