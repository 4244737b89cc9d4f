// Offgrid: the battery question. The paper's case for a battery-less,
// directly-coupled design rests on battery de-rating (Table 3): this
// example sweeps battery round-trip efficiency against SolarCore on a
// larger 2×2 array powering a 16-core chip — demonstrating custom array
// and chip configuration through the public API along the way.
package main

import (
	"fmt"
	"log"

	"solarcore"
)

func main() {
	log.SetFlags(0)

	trace := solarcore.GenerateWeather(solarcore.NC, solarcore.Oct, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 2, 2) // 4 modules, ~720 W
	if err != nil {
		log.Fatal(err)
	}

	// A 16-core machine with a finer 8-point DVFS table, doubling the mix.
	chip := solarcore.DefaultChip()
	chip.Cores = 16
	base, err := solarcore.MixByName("ML2")
	if err != nil {
		log.Fatal(err)
	}
	mix := solarcore.Mix{
		Name:     "ML2x2",
		Kind:     "heterogeneous",
		Programs: append(append([]string{}, base.Programs...), base.Programs...),
	}
	cfg := solarcore.Config{Day: day, Mix: mix, Chip: chip}

	sc, err := run(cfg, solarcore.WithPolicy(solarcore.PolicyOpt))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SolarCore (battery-less) on %s: %.0f Wh solar, PTP %.0f Ginstr, util %.1f%%\n\n",
		trace.Label(), sc.SolarWh, sc.PTP(), sc.Utilization()*100)

	fmt.Printf("%-34s %10s %14s %10s\n", "battery system", "eff", "PTP (Ginstr)", "vs SolarCore")
	for _, grade := range solarcore.BatteryGrades {
		res, err := run(cfg, solarcore.WithBattery(grade.Derating()))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-34s %9.0f%% %14.0f %9.2f×\n",
			grade.String(), grade.Derating()*100, res.PTP(), res.PTP()/sc.PTP())
	}

	fmt.Println("\nA battery system must beat its de-rating losses AND amortize its")
	fmt.Println("capital/lifetime cost; SolarCore matches the best of them with neither.")
}

// run simulates one day through a Runner in the mode opt selects.
func run(cfg solarcore.Config, opt solarcore.RunnerOption) (*solarcore.DayResult, error) {
	r, err := solarcore.NewRunner(cfg, opt)
	if err != nil {
		return nil, err
	}
	return r.Run()
}
