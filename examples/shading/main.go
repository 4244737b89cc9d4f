// Shading: what happens to MPPT when the paper's uniform-irradiance
// assumption breaks. A partially shaded series string with bypass diodes
// has a multi-peak P-V curve: a plain perturb-and-observe tracker locks
// onto whichever hill it starts near, while a periodic global scan finds
// the true maximum.
package main

import (
	"fmt"
	"log"
	"strings"

	"solarcore"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/tracker"
)

func main() {
	log.SetFlags(0)

	// Three modules in series; one is 70 % shaded (a chimney's morning
	// shadow, say).
	s := solarcore.NewShadedString(solarcore.BP3180N(), []float64{1, 1, 0.3})
	env := pv.STC

	fmt.Println("P-V curve of the shaded string (two peaks — the bypass knee between them):")
	voc := s.OpenCircuitVoltage(env)
	global := s.MPP(env)
	const width = 64
	var bars [width]float64
	for i := 0; i < width; i++ {
		bars[i] = s.Power(env, voc*float64(i)/float64(width-1))
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, p := range bars {
		b.WriteRune(levels[int(p/global.P*float64(len(levels)-1))])
	}
	fmt.Printf("  |%s|  0..%.0f V\n\n", b.String(), voc)

	for _, peak := range s.LocalMPPs(env) {
		marker := ""
		if peak.P > global.P*0.999 {
			marker = "  ← global maximum"
		}
		fmt.Printf("  local peak: %6.1f W at %5.1f V%s\n", peak.P, peak.V, marker)
	}

	// Trap a P&O tracker on the wrong hill; let GlobalScan escape it.
	rLoad := (global.V / global.I) / (9 * 0.96)
	run := func(alg tracker.Algorithm) float64 {
		circuit := power.NewCircuit(s)
		circuit.Conv.SetRatio(circuit.Conv.KMax) // start near the decoy
		alg.Reset()
		cv := s.At(env)
		for i := 0; i < 600; i++ {
			alg.Step(circuit, &cv, rLoad)
		}
		return circuit.Operate(&cv, rLoad).PLoad
	}

	fmt.Println("\nboth trackers start parked near the high-voltage (decoy) peak:")
	po := run(&tracker.PerturbObserve{})
	gs := run(&tracker.GlobalScan{RescanPeriod: 40, ScanPoints: 32})
	avail := global.P * 0.96
	fmt.Printf("  P&O settles at        %6.1f W  (%.0f%% of the global maximum)\n", po, 100*po/avail)
	fmt.Printf("  GlobalScan settles at %6.1f W  (%.0f%% of the global maximum)\n", gs, 100*gs/avail)
	fmt.Println("\nUnder partial shading, hill climbing alone is not enough — a global")
	fmt.Println("sweep (or per-string tracking) recovers the lost energy.")
}
