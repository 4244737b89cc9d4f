package exp

import (
	"testing"

	"solarcore"
	"solarcore/internal/atmos"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

// TestLabCellsAreRunSpecs pins the Lab's cell identity: every cached
// cell kind, clean and faulted, is cached under the Hash of the spec
// naming it. The root TestServingConformance holds a cell's bytes to
// RunSpec.Run of that spec and to every serving path.
func TestLabCellsAreRunSpecs(t *testing.T) {
	mix, err := workload.MixByName("L1")
	if err != nil {
		t.Fatal(err)
	}
	const faults = "cloud:t0=600,t1=720,i=0.9"
	clean := NewLab(Options{StepMin: 4})
	faulted := NewLab(Options{StepMin: 4, Faults: faults})
	base := solarcore.RunSpec{Site: "CO", Season: "Oct", Mix: "L1", StepMin: 4}
	withFaults := func(s solarcore.RunSpec) solarcore.RunSpec { s.Faults = faults; return s }
	for _, tc := range []struct {
		name string
		lab  *Lab
		cell *sim.DayResult
		spec solarcore.RunSpec
	}{
		{"mppt", clean, clean.MPPT(atmos.CO, atmos.Oct, mix, "MPPT&RR"),
			solarcore.RunSpec{Site: "CO", Season: "Oct", Mix: "L1", StepMin: 4, Policy: "MPPT&RR"}},
		{"fixed", clean, clean.Fixed(atmos.CO, atmos.Oct, mix, 50),
			solarcore.RunSpec{Site: "CO", Season: "Oct", Mix: "L1", StepMin: 4, FixedW: 50}},
		{"battery", clean, clean.Battery(atmos.CO, atmos.Oct, mix, 0.8),
			solarcore.RunSpec{Site: "CO", Season: "Oct", Mix: "L1", StepMin: 4, BatteryEff: 0.8}},
		{"faulted mppt", faulted, faulted.MPPT(atmos.CO, atmos.Oct, mix, "MPPT&Opt"), withFaults(base)},
		{"faulted fixed", faulted, faulted.Fixed(atmos.CO, atmos.Oct, mix, 75),
			withFaults(solarcore.RunSpec{Site: "CO", Season: "Oct", Mix: "L1", StepMin: 4, FixedW: 75})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r, ok := tc.lab.runs.Get(tc.spec.Hash()); !ok || r != tc.cell {
				t.Errorf("cell is not cached under the spec hash of %s", tc.spec.Canonical())
			}
		})
	}
	if got := faulted.MPPT(atmos.CO, atmos.Oct, mix, "MPPT&Opt").Faults.Injected; got == 0 {
		t.Error("faulted lab cell injected no faults")
	}
}
