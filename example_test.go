package solarcore_test

import (
	"fmt"

	"solarcore"
	"solarcore/internal/pv"
)

// The BP3180N module at standard test conditions hits its 180 W nameplate.
func ExampleNewModule() {
	m := solarcore.NewModule(solarcore.BP3180N())
	stc := m.At(pv.STC)
	mpp := stc.MPP()
	fmt.Printf("Pmax = %.0f W at %.1f V\n", mpp.P, mpp.V)
	// Output: Pmax = 181 W at 35.9 V
}

// Weather generation is deterministic: the same site, season and day index
// always produce the same trace.
func ExampleGenerateWeather() {
	a := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jan, 0)
	b := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jan, 0)
	fmt.Println(a.Label(), a.InsolationKWh() == b.InsolationKWh())
	// Output: Jan@AZ true
}

// Table 5's workload mixes are addressed by name.
func ExampleMixByName() {
	mix, _ := solarcore.MixByName("HM2")
	fmt.Println(mix.Kind, len(mix.Programs))
	// Output: heterogeneous 8
}

// A full SolarCore day: weather → panel → workload → policy → metrics.
func ExampleRunner_Run() {
	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	mix, _ := solarcore.MixByName("L1")
	runner, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix, StepMin: 2},
		solarcore.WithPolicy(solarcore.PolicyOpt))
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := runner.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Policy, res.Utilization() > 0.7)
	// Output: MPPT&Opt true
}

// A partially shaded module exposes several local maxima; MPP reports the
// global one.
func ExampleNewShadedString() {
	s := solarcore.NewShadedString(solarcore.BP3180N(), []float64{1, 1, 0.3})
	peaks := s.LocalMPPs(pv.STC)
	global := s.MPP(pv.STC)
	fmt.Println(len(peaks) >= 2, global.P > peaks[len(peaks)-1].P*0.99)
	// Output: true true
}

// The Table 6 policies, in the paper's order.
func ExamplePolicies() {
	for _, p := range solarcore.Policies() {
		fmt.Println(p)
	}
	// Output:
	// MPPT&IC
	// MPPT&RR
	// MPPT&Opt
}
