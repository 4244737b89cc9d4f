package solarcore_test

import (
	"math"
	"strings"
	"testing"

	"solarcore"
	"solarcore/internal/power"
	"solarcore/internal/pv"
)

// runDay runs cfg through a Runner built with opts, failing the test on
// any error.
func runDay(t *testing.T, cfg solarcore.Config, opts ...solarcore.RunnerOption) *solarcore.DayResult {
	t.Helper()
	r, err := solarcore.NewRunner(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuickstartFlow(t *testing.T) {
	// The README quick-start, end to end through the public API only.
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	res := runDay(t, solarcore.Config{Day: day, Mix: mix, StepMin: 2}, solarcore.WithPolicy(solarcore.PolicyOpt))
	if u := res.Utilization(); u < 0.5 || u > 1 {
		t.Errorf("utilization %.3f", u)
	}
	if res.PTP() <= 0 {
		t.Error("no instructions committed")
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jan, 0)
	day, _ := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	mix, _ := solarcore.MixByName("H1")
	if _, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix}, solarcore.WithPolicy("MPPT&Magic")); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestPoliciesList(t *testing.T) {
	ps := solarcore.Policies()
	if len(ps) != 3 || ps[2] != solarcore.PolicyOpt {
		t.Errorf("policies = %v", ps)
	}
}

func TestPanelFacade(t *testing.T) {
	m := solarcore.NewModule(solarcore.BP3180N())
	stc := m.At(pv.STC)
	mpp := stc.MPP()
	if mpp.P < 170 || mpp.P > 190 {
		t.Errorf("facade module Pmax = %.1f", mpp.P)
	}
	a := solarcore.NewArray(solarcore.BP3180N(), 2, 2)
	if got := a.MPP(pv.STC).P; math.Abs(got-4*mpp.P) > 1 {
		t.Errorf("array Pmax = %.1f, want ≈ %v", got, 4*mpp.P)
	}
	pts := solarcore.IVCurve(m, pv.STC, 32)
	if len(pts) != 32 {
		t.Errorf("curve points = %d", len(pts))
	}
}

func TestControllerFacade(t *testing.T) {
	chip, err := solarcore.NewChip(solarcore.DefaultChip())
	if err != nil {
		t.Fatal(err)
	}
	mix, _ := solarcore.MixByName("L1")
	if err := mix.Apply(chip); err != nil {
		t.Fatal(err)
	}
	circuit := power.NewCircuit(solarcore.NewModule(solarcore.BP3180N()))
	ctrl, err := solarcore.NewController(circuit, chip, solarcore.PolicyOpt, solarcore.ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := ctrl.Track(solarcore.Env{Irradiance: 900, CellTemp: 30}, 0)
	if !res.Solar() {
		t.Errorf("tracking failed: %+v", res)
	}
	if _, err := solarcore.NewController(circuit, chip, "nope", solarcore.ControllerConfig{}); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestBaselineFacades(t *testing.T) {
	trace := solarcore.GenerateWeather(solarcore.CO, solarcore.Apr, 0)
	day, _ := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	mix, _ := solarcore.MixByName("M1")
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}
	runDay(t, cfg, solarcore.WithFixedBudget(75))
	runDay(t, cfg, solarcore.WithBattery(solarcore.BatteryUpperEff))
	if len(solarcore.BatteryGrades) != 3 {
		t.Error("battery grades missing")
	}
	if len(solarcore.Benchmarks()) != 12 || len(solarcore.Mixes()) != 10 {
		t.Error("workload registries wrong")
	}
	if len(solarcore.Sites) != 4 {
		t.Error("site registry wrong")
	}
}

func TestExtendedFacade(t *testing.T) {
	// Mounts.
	trace := solarcore.GenerateWeather(solarcore.NC, solarcore.Apr, 0)
	tracked := trace.WithMount(solarcore.SingleAxisTracker)
	if tracked.InsolationKWh() <= trace.InsolationKWh() {
		t.Error("tracker mount should gain energy")
	}
	// Weather CSV round trip through the facade.
	var buf strings.Builder
	if err := trace.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := solarcore.ReadWeatherCSV(strings.NewReader(buf.String()), solarcore.NC, solarcore.Apr)
	if err != nil || len(back.Samples) != len(trace.Samples) {
		t.Fatalf("weather CSV round trip: %v", err)
	}
	// MIDC import.
	midc := "DATE,MST,Global Horizontal [W/m^2]\n1/15/2009,08:00,100\n1/15/2009,08:10,150\n"
	if _, err := solarcore.ReadMIDC(strings.NewReader(midc), solarcore.AZ, solarcore.Jan); err != nil {
		t.Fatalf("MIDC import: %v", err)
	}
	// Shaded generator day + run with scan.
	gen := solarcore.PartiallyShadedModule(solarcore.BP3180N(), []float64{1, 0.3, 1})
	day, err := solarcore.NewDayFromGenerator(trace, gen, solarcore.BP3180N())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := solarcore.SyntheticMix("S", 2, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tc := solarcore.DefaultThermal()
	res := runDay(t, solarcore.Config{
		Day: day, Mix: mix, StepMin: 2, ScanPoints: 16, Thermal: &tc,
	}, solarcore.WithPolicy(solarcore.PolicyOpt))
	if res.PTP() <= 0 {
		t.Error("extended run committed nothing")
	}
	// Sustainability ledger.
	im := solarcore.AssessImpact(res, solarcore.GridProfileFor("NC"))
	if im.CarbonSavedKg <= 0 {
		t.Errorf("no carbon accounting: %+v", im)
	}
	// Activity trace import.
	act, err := solarcore.ReadActivityCSV(strings.NewReader("minute,ipc,ceff_nf\n0,0.9,3\n1,1.0,3.2\n"))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := solarcore.NewChip(solarcore.DefaultChip())
	if err != nil {
		t.Fatal(err)
	}
	if err := chip.SetActivity(0, act); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesAndBankFacade(t *testing.T) {
	traces := solarcore.GenerateWeatherRun(solarcore.CO, solarcore.Oct, 2)
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	var days []*solarcore.SolarDay
	for _, tr := range traces {
		d, err := solarcore.NewDay(tr, solarcore.BP3180N(), 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, d)
	}
	mix, _ := solarcore.MixByName("M1")
	series, err := solarcore.NewRunner(solarcore.Config{Mix: mix, StepMin: 2}, solarcore.WithPolicy(solarcore.PolicyOpt))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := series.RunSeries(days)
	if err != nil {
		t.Fatal(err)
	}
	if sr.TotalPTP() <= 0 || len(sr.Days) != 2 {
		t.Errorf("series: %+v", sr)
	}

	bank, err := solarcore.NewBank(solarcore.LeadAcidBank(900))
	if err != nil {
		t.Fatal(err)
	}
	banked, err := solarcore.NewRunner(solarcore.Config{Day: days[0], Mix: mix, StepMin: 2}, solarcore.WithBank(bank, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	res, err := banked.RunBank()
	if err != nil {
		t.Fatal(err)
	}
	if res.SolarWh <= 0 {
		t.Errorf("bank facade run empty: %+v", res)
	}
}
