// Lifetime: the paper's Section 1 argument against batteries, quantified.
// Deploy a realistic lead-acid bank on a standalone system for a simulated
// month and extrapolate its wear; compare the energy actually delivered
// with a battery-less SolarCore system on the same weather.
package main

import (
	"fmt"
	"log"

	"solarcore"
)

const days = 28

func main() {
	log.SetFlags(0)

	mix, err := solarcore.MixByName("M2")
	if err != nil {
		log.Fatal(err)
	}

	// Standalone battery system: 2×2 array (a standalone design must
	// oversize its panel) + 1.2 kWh lead-acid bank.
	bankCfg := solarcore.LeadAcidBank(1200)
	bank, err := solarcore.NewBank(bankCfg)
	if err != nil {
		log.Fatal(err)
	}

	var bankWh, bankGI, haltMin, lossWh, cycles float64
	var scWh, scGI, utilityWh float64

	for d := 0; d < days; d++ {
		season := []solarcore.Season{solarcore.Jan, solarcore.Apr, solarcore.Jul, solarcore.Oct}[d%4]
		trace := solarcore.GenerateWeather(solarcore.NC, season, d)

		big, err := solarcore.NewDay(trace, solarcore.BP3180N(), 2, 2)
		if err != nil {
			log.Fatal(err)
		}
		cfg := solarcore.Config{Day: big, Mix: mix}
		banked, err := solarcore.NewRunner(cfg, solarcore.WithBank(bank, 0.95))
		if err != nil {
			log.Fatal(err)
		}
		bres, err := banked.RunBank()
		if err != nil {
			log.Fatal(err)
		}
		bankWh += bres.SolarWh
		bankGI += bres.PTP()
		haltMin += bres.HaltMin
		lossWh += bres.BatteryLossWh
		cycles += bres.Cycles

		// SolarCore on the same weather and array, no battery, grid backup.
		solar, err := solarcore.NewRunner(cfg, solarcore.WithPolicy(solarcore.PolicyOpt))
		if err != nil {
			log.Fatal(err)
		}
		sres, err := solar.Run()
		if err != nil {
			log.Fatal(err)
		}
		scWh += sres.SolarWh
		scGI += sres.PTP()
		utilityWh += sres.UtilityWh
	}

	fmt.Printf("%d simulated days at NC (2×2 array, mix %s)\n\n", days, mix.Name)
	fmt.Println("standalone battery system (1.2 kWh lead-acid, 95% MPPT controller):")
	fmt.Printf("  energy delivered      : %.1f kWh\n", bankWh/1000)
	fmt.Printf("  instructions          : %.0f Ginstr\n", bankGI)
	fmt.Printf("  battery losses        : %.1f kWh\n", lossWh/1000)
	fmt.Printf("  brownout time         : %.1f h\n", haltMin/60)
	fmt.Printf("  equivalent full cycles: %.1f (%.2f/day)\n", cycles, cycles/days)
	fmt.Printf("  capacity remaining    : %.1f%% of nameplate\n", bank.CapacityWh()/bankCfg.CapacityWh*100)
	yearsTo80 := 0.2 * bankCfg.CapacityWh / (bankCfg.FadePerCycle * bankCfg.CapacityWh * cycles / days) / 365
	fmt.Printf("  projected life to 80%% : %.1f years at this duty\n\n", yearsTo80)

	fmt.Println("SolarCore (battery-less, grid backup) on the same weather:")
	fmt.Printf("  solar energy used     : %.1f kWh\n", scWh/1000)
	fmt.Printf("  instructions on solar : %.0f Ginstr\n", scGI)
	fmt.Printf("  grid backup energy    : %.1f kWh\n", utilityWh/1000)
	fmt.Println("\nNo cells to replace, no round-trip loss, no brownouts — the grid")
	fmt.Println("covers the gaps the battery would have had to bridge.")
}
