// Command pvcurve prints the I-V and P-V characteristics of the modeled PV
// module (Figures 6 and 7) either as an ASCII summary or as CSV for
// plotting.
//
// Usage:
//
//	pvcurve [-sweep irradiance|temperature] [-samples 256] [-csv]
//	pvcurve -G 850 -T 40           # single environment
package main

import (
	"flag"
	"fmt"
	"log"

	"solarcore"
	"solarcore/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pvcurve: ")

	sweep := flag.String("sweep", "irradiance", "family to sweep: irradiance (Figure 6) or temperature (Figure 7)")
	samples := flag.Int("samples", 256, "voltage samples per curve")
	csv := flag.Bool("csv", false, "emit CSV instead of the ASCII summary")
	g := flag.Float64("G", 0, "single-curve mode: irradiance in W/m²")
	t := flag.Float64("T", 25, "single-curve mode: cell temperature in °C")
	flag.Parse()

	if *g > 0 {
		m := solarcore.NewModule(solarcore.BP3180N())
		env := solarcore.Env{Irradiance: *g, CellTemp: *t}
		cv := m.At(env)
		mpp := cv.MPP()
		if *csv {
			fmt.Println("voltage_v,current_a,power_w")
			for _, p := range solarcore.IVCurve(m, env, *samples) {
				fmt.Printf("%.4f,%.4f,%.4f\n", p.V, p.I, p.P)
			}
			return
		}
		fmt.Printf("BP3180N at G=%.0f W/m², T=%.0f °C\n", *g, *t)
		fmt.Printf("  Voc  = %.2f V\n", cv.OpenCircuitVoltage())
		fmt.Printf("  Isc  = %.2f A\n", cv.ShortCircuitCurrent())
		fmt.Printf("  MPP  = %.2f V × %.2f A = %.1f W\n", mpp.V, mpp.I, mpp.P)
		return
	}

	var fam exp.CurveFamily
	switch *sweep {
	case "irradiance":
		fam = exp.Figure6(*samples)
	case "temperature":
		fam = exp.Figure7(*samples)
	default:
		log.Fatalf("unknown sweep %q (want irradiance or temperature)", *sweep)
	}
	if *csv {
		fmt.Print(fam.CSV())
		return
	}
	fmt.Println(fam.Render())
}
