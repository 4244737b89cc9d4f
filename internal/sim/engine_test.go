package sim

import (
	"math"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/power"
	"solarcore/internal/sched"
	"solarcore/internal/workload"
)

func mix(t *testing.T, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cfgFor(t *testing.T, site atmos.Site, season atmos.Season, mixName string) Config {
	return Config{
		Day:     testDay(t, site, season),
		Mix:     mix(t, mixName),
		StepMin: 2, // coarser sub-sampling keeps tests quick
	}
}

func TestRunMPPTSunnyDay(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "HM2")
	cfg.KeepSeries = true
	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "MPPT&Opt" || res.Mix != "HM2" || res.Label != "Jan@AZ" {
		t.Errorf("identity fields wrong: %+v", res)
	}
	if u := res.Utilization(); u < 0.60 || u > 0.96 {
		t.Errorf("utilization = %.3f, want a productive sunny-day value", u)
	}
	if d := res.EffectiveDuration(); d < 0.55 || d > 1 {
		t.Errorf("effective duration = %.3f", d)
	}
	if res.GInstrSolar <= 0 || res.GInstrTotal < res.GInstrSolar {
		t.Errorf("instruction accounting wrong: %v / %v", res.GInstrSolar, res.GInstrTotal)
	}
	if len(res.PeriodErrs) == 0 {
		t.Error("no tracking-error samples collected")
	}
	if e := res.TrackErrGeoMean(); e <= 0 || e > 0.35 {
		t.Errorf("tracking error geomean = %.3f, want small positive", e)
	}
	if len(res.Series) == 0 {
		t.Error("KeepSeries produced no trace")
	}
}

func TestRunMPPTSeriesTracksBudget(t *testing.T) {
	// The Figure 13 property: during solar operation the actual power
	// closely follows the maximal power budget from below.
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "L1")
	cfg.KeepSeries = true
	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	solarPts := 0
	for _, p := range res.Series {
		if !p.OnSolar {
			continue
		}
		solarPts++
		if p.ActualW > p.BudgetW+1e-6 {
			t.Fatalf("minute %v: actual %.1f above budget %.1f", p.Minute, p.ActualW, p.BudgetW)
		}
	}
	if solarPts < len(res.Series)/3 {
		t.Errorf("only %d of %d points solar-powered on a clear AZ day", solarPts, len(res.Series))
	}
}

func TestRunMPPTConservation(t *testing.T) {
	// Energy bookkeeping: solar + utility energy equals integrated chip
	// power; solar never exceeds the theoretical panel maximum.
	cfg := cfgFor(t, atmos.CO, atmos.Jul, "M2")
	res, err := RunMPPT(cfg, &sched.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolarWh > res.MPPEnergyWh {
		t.Errorf("solar %.1f Wh exceeds theoretical max %.1f Wh", res.SolarWh, res.MPPEnergyWh)
	}
	if res.SolarWh < 0 || res.UtilityWh < 0 {
		t.Error("negative energy")
	}
	if res.SolarMin > res.DaytimeMin+1e-6 {
		t.Errorf("solar minutes %v exceed daytime %v", res.SolarMin, res.DaytimeMin)
	}
}

func TestRunFixedThresholdTradeoff(t *testing.T) {
	// Section 6.2: higher thresholds shorten the effective duration.
	cfg := cfgFor(t, atmos.AZ, atmos.Oct, "M1")
	prev := math.Inf(1)
	for _, b := range []float64{25, 75, 125} {
		res, err := RunFixed(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.SolarMin > prev+1e-9 {
			t.Errorf("budget %v: duration %v did not shrink (prev %v)", b, res.SolarMin, prev)
		}
		prev = res.SolarMin
	}
}

func TestRunFixedBelowMPPT(t *testing.T) {
	// The headline Fixed-Power comparison: even a decent fixed budget draws
	// clearly less solar energy than tracking on the same day.
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "HM2")
	mpptRes, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	bestFixed := 0.0
	for _, b := range []float64{25, 50, 75, 100, 125} {
		res, err := RunFixed(cfg, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.SolarWh > bestFixed {
			bestFixed = res.SolarWh
		}
	}
	if bestFixed >= mpptRes.SolarWh {
		t.Errorf("best fixed %.1f Wh not below MPPT %.1f Wh", bestFixed, mpptRes.SolarWh)
	}
}

func TestRunFixedValidation(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "H1")
	if _, err := RunFixed(cfg, 0); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := RunFixed(cfg, -5); err == nil {
		t.Error("negative budget should error")
	}
}

func TestRunBatteryUtilizationEqualsEff(t *testing.T) {
	// By construction the battery baseline consumes exactly eff × the MPP
	// energy (the dynamic power monitor drains it fully) — unless the chip
	// cannot absorb it within the day, which cannot happen with a single
	// 180 W panel against a ~150 W chip.
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "H1")
	res, err := RunBattery(cfg, power.BatteryUpperEff)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Utilization(); math.Abs(got-power.BatteryUpperEff) > 0.02 {
		t.Errorf("battery utilization = %.3f, want ≈ %.2f", got, power.BatteryUpperEff)
	}
	if res.GInstrSolar <= 0 {
		t.Error("battery run committed nothing")
	}
	if res.SolarMin <= 0 || res.SolarMin > res.DaytimeMin {
		t.Errorf("battery solar minutes = %v", res.SolarMin)
	}
}

func TestRunBatteryOrdering(t *testing.T) {
	cfg := cfgFor(t, atmos.CO, atmos.Apr, "ML2")
	hi, err := RunBattery(cfg, power.BatteryUpperEff)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := RunBattery(cfg, power.BatteryLowerEff)
	if err != nil {
		t.Fatal(err)
	}
	if hi.PTP() <= lo.PTP() {
		t.Errorf("Battery-U PTP %.0f not above Battery-L %.0f", hi.PTP(), lo.PTP())
	}
	if _, err := RunBattery(cfg, 1.5); err == nil {
		t.Error("efficiency > 1 should error")
	}
	if _, err := RunBattery(cfg, 0); err == nil {
		t.Error("zero efficiency should error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunMPPT(Config{}, sched.OptTPR{}); err == nil {
		t.Error("missing day should error")
	}
	cfg := Config{Day: testDay(t, atmos.AZ, atmos.Jan)}
	if _, err := RunMPPT(cfg, sched.OptTPR{}); err == nil {
		t.Error("missing mix should error")
	}
	bad := cfgFor(t, atmos.AZ, atmos.Jan, "H1")
	bad.Mix = workload.Mix{Name: "bad", Programs: []string{"nope", "x", "x", "x", "x", "x", "x", "x"}}
	if _, err := RunMPPT(bad, sched.OptTPR{}); err == nil {
		t.Error("bad mix should error")
	}
}

func TestPolicyOrderingOnOneDay(t *testing.T) {
	// A single heterogeneous day should already show the Figure 21 policy
	// ordering: Opt ≥ RR ≥ IC in performance-time product.
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "ML2")
	ptp := map[string]float64{}
	for _, name := range sched.Names() {
		alloc, _ := sched.ByName(name)
		res, err := RunMPPT(cfg, alloc)
		if err != nil {
			t.Fatal(err)
		}
		ptp[alloc.Name()] = res.PTP()
	}
	if !(ptp["MPPT&Opt"] >= ptp["MPPT&RR"]) {
		t.Errorf("Opt %.0f below RR %.0f", ptp["MPPT&Opt"], ptp["MPPT&RR"])
	}
	if !(ptp["MPPT&RR"] > ptp["MPPT&IC"]) {
		t.Errorf("RR %.0f not above IC %.0f", ptp["MPPT&RR"], ptp["MPPT&IC"])
	}
}
