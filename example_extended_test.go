package solarcore_test

import (
	"fmt"

	"solarcore"
	"solarcore/internal/pv"
)

// A single-axis tracker harvests more than a fixed tilt on the same sky.
func ExampleMount() {
	fixed := solarcore.GenerateWeather(solarcore.AZ, solarcore.Apr, 0)
	tracked := fixed.WithMount(solarcore.SingleAxisTracker)
	fmt.Println(tracked.InsolationKWh() > fixed.InsolationKWh())
	// Output: true
}

// The battery baselines bracket a real system between Table 3's de-rating
// levels.
func ExampleWithBattery() {
	trace := solarcore.GenerateWeather(solarcore.CO, solarcore.Jul, 0)
	day, _ := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	mix, _ := solarcore.MixByName("M1")
	cfg := solarcore.Config{Day: day, Mix: mix, StepMin: 2}
	run := func(eff float64) *solarcore.DayResult {
		runner, _ := solarcore.NewRunner(cfg, solarcore.WithBattery(eff))
		res, _ := runner.Run()
		return res
	}
	hi, lo := run(solarcore.BatteryUpperEff), run(solarcore.BatteryLowerEff)
	fmt.Println(hi.PTP() > lo.PTP())
	// Output: true
}

// Synthetic mixes extend Table 5 with arbitrary EPI-class compositions.
func ExampleSyntheticMix() {
	mix, _ := solarcore.SyntheticMix("custom", 4, 2, 2, 99)
	fmt.Println(mix.Kind, len(mix.Programs))
	// Output: synthetic 8
}

// The sustainability ledger turns a day run into the paper's motivating
// quantity: fossil carbon displaced.
func ExampleAssessImpact() {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, _ := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	mix, _ := solarcore.MixByName("M2")
	runner, _ := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix, StepMin: 2},
		solarcore.WithPolicy(solarcore.PolicyOpt))
	res, _ := runner.Run()
	im := solarcore.AssessImpact(res, solarcore.GridProfileFor("AZ"))
	fmt.Println(im.CarbonReduction() > 0.8, im.CostSaved > 0)
	// Output: true true
}

// A lead-acid bank wears out: cycling reduces its capacity.
func ExampleNewBank() {
	bank, _ := solarcore.NewBank(solarcore.LeadAcidBank(800))
	for i := 0; i < 50; i++ {
		bank.Charge(200, 120)
		for bank.Discharge(400, 30) > 0 {
		}
	}
	fmt.Println(bank.CapacityWh() < 800, bank.EquivalentFullCycles() > 1)
	// Output: true true
}

// The two-diode model quantifies what the paper's single-diode choice
// leaves out: a few percent at standard conditions.
func ExampleModuleParams() {
	p := solarcore.BP3180N()
	one := pv.NewModule(p).MPP(pv.STC).P
	two := pv.NewTwoDiodeModule(p).MPP(pv.STC).P
	loss := (one - two) / one
	fmt.Println(loss > 0, loss < 0.06)
	// Output: true true
}
