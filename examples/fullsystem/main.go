// Fullsystem: the paper's future work (Section 8), running today — extend
// SolarCore's throughput-power-ratio allocation beyond the processor to a
// DRPM multi-speed disk, DRAM rank management, and NIC link speeds, all
// sharing one solar budget.
//
// This example uses the internal fullsys package directly (go run from the
// repository), since device-level management is an experimental surface.
package main

import (
	"fmt"
	"log"
	"math"

	"solarcore/internal/atmos"
	"solarcore/internal/fullsys"
	"solarcore/internal/mcore"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

func buildSystem() (*fullsys.System, *mcore.Chip, error) {
	chip, err := mcore.NewChip(mcore.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	mix, err := workload.MixByName("ML2")
	if err != nil {
		return nil, nil, err
	}
	if err := mix.Apply(chip); err != nil {
		return nil, nil, err
	}
	_ = chip.SetAllLevels(mcore.Gated) // fresh chip: Gated is always a valid level

	sys := &fullsys.System{}
	for i := 0; i < chip.NumCores(); i++ {
		sys.Devices = append(sys.Devices, &fullsys.CoreDevice{Chip: chip, Core: i, Weight: 1})
	}
	// Service demands ebb and flow through the day.
	sys.Devices = append(sys.Devices,
		fullsys.NewDisk(0.05, func(min float64) float64 { return 35 + 20*math.Sin(min/45) }),
		fullsys.NewMemory(0.25, func(min float64) float64 { return 7 + 4*math.Sin(min/30) }),
		fullsys.NewNIC(0.4, func(min float64) float64 { return 0.6 + 0.35*math.Sin(min/20) }),
	)
	return sys, chip, nil
}

func main() {
	log.SetFlags(0)

	tr := atmos.Generate(atmos.AZ, atmos.Oct, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	sys, chip, err := buildSystem()
	if err != nil {
		log.Fatal(err)
	}
	res := fullsys.RunDay(day, sys, 10, 1, 0.96)

	fmt.Printf("full-system SolarCore on %s (8 cores + disk + DRAM + NIC)\n\n", tr.Label())
	fmt.Printf("solar energy used : %.0f Wh (%.1f%% of panel maximum)\n",
		res.SolarWh, 100*res.SolarWh/day.MPPEnergyWh())
	fmt.Printf("utility backup    : %.0f Wh\n", res.UtilityWh)
	fmt.Printf("solar duration    : %.1f%% of daytime\n", 100*res.SolarMin/res.DaytimeMin)
	fmt.Printf("service delivered : %.0f weighted unit-seconds\n\n", res.ServiceUnits)

	fmt.Println("state of every device at midday after budget filling:")
	sys.At(720)
	sys.FillBudget(0.96 * day.MPPAt(720) * 0.95)
	for _, d := range sys.Devices {
		fmt.Printf("  %-8s state %d/%d  %6.2f W  utility %6.2f\n",
			d.Name(), d.State(), d.NumStates()-1, d.PowerAt(d.State()), d.UtilityAt(d.State()))
	}
	_ = chip
}
