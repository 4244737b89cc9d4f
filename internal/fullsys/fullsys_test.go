package fullsys

import (
	"math"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/mcore"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

func testSystem(t *testing.T) *System {
	t.Helper()
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, err := workload.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(chip); err != nil {
		t.Fatal(err)
	}
	chip.SetAllLevels(mcore.Gated)
	sys := &System{}
	for i := 0; i < chip.NumCores(); i++ {
		sys.Devices = append(sys.Devices, &CoreDevice{Chip: chip, Core: i, Weight: 1})
	}
	sys.Devices = append(sys.Devices,
		NewDisk(0.05, func(min float64) float64 { return 30 + 20*math.Sin(min/40) }),
		NewMemory(0.2, func(min float64) float64 { return 6 + 4*math.Sin(min/25) }),
		NewNIC(0.3, func(min float64) float64 { return 0.5 + 0.4*math.Sin(min/15) }),
	)
	sys.At(0)
	return sys
}

func TestDeviceStateBounds(t *testing.T) {
	sys := testSystem(t)
	for _, d := range sys.Devices {
		if err := d.SetState(-1); err == nil {
			t.Errorf("%s: negative state accepted", d.Name())
		}
		if err := d.SetState(d.NumStates()); err == nil {
			t.Errorf("%s: overflow state accepted", d.Name())
		}
		if err := d.SetState(0); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
		if d.PowerAt(0) < 0 || d.UtilityAt(0) < 0 {
			t.Errorf("%s: negative power/utility at state 0", d.Name())
		}
	}
}

func TestDevicePowerMonotone(t *testing.T) {
	sys := testSystem(t)
	for _, d := range sys.Devices {
		prev := -1.0
		for s := 0; s < d.NumStates(); s++ {
			p := d.PowerAt(s)
			if p < prev-1e-9 {
				t.Errorf("%s: power fell from state %d to %d", d.Name(), s-1, s)
			}
			prev = p
		}
	}
}

func TestProbesWriteNoState(t *testing.T) {
	// A raise probes every device's next state and then moves one device
	// one step: the chip sees at most that one level change.
	sys := testSystem(t)
	chip := sys.Devices[0].(*CoreDevice).Chip
	for i := 0; i < 40; i++ {
		before := chip.Transitions()
		if !sys.RaiseWithin(math.Inf(1)) {
			break
		}
		if moved := chip.Transitions() - before; moved > 1 {
			t.Fatalf("raise %d moved the chip %d times", i, moved)
		}
	}
}

func TestRaiseLowerRoundTrip(t *testing.T) {
	sys := testSystem(t)
	raises := 0
	for sys.RaiseWithin(math.Inf(1)) {
		raises++
		if raises > 1000 {
			t.Fatal("Raise never saturates")
		}
	}
	if raises == 0 {
		t.Fatal("no raises from the floor")
	}
	maxP := sys.Power()
	lowers := 0
	for sys.Lower() {
		lowers++
		if lowers > 1000 {
			t.Fatal("Lower never saturates")
		}
	}
	if got := sys.Power(); got >= maxP || got > 1 {
		t.Errorf("after full Lower, power = %v", got)
	}
	if raises != lowers {
		t.Errorf("raises %d != lowers %d", raises, lowers)
	}
}

func TestFillBudgetRespectsBudget(t *testing.T) {
	sys := testSystem(t)
	for _, budget := range []float64{15, 40, 80, 140, 400} {
		p := sys.FillBudget(budget)
		if p > budget+1e-9 {
			t.Errorf("budget %v: filled to %v", budget, p)
		}
	}
}

func TestGlobalTPRPrefersCheapUtility(t *testing.T) {
	// From the floor, the first raises should go to the cheap high-utility
	// devices (NIC/memory per weighted unit) before pushing cores to the
	// top; verify the allocator beats a cores-only fill at a tight budget.
	sys := testSystem(t)
	budget := 50.0
	sys.FillBudget(budget)
	mixed := sys.Utility()

	// Cores-only fill of the same budget.
	sysCores := testSystem(t)
	coreOnly := &System{Devices: sysCores.Devices[:8]}
	coreOnly.FillBudget(budget)
	coresU := coreOnly.Utility()
	if mixed <= coresU {
		t.Errorf("global fill %v not above cores-only %v", mixed, coresU)
	}
}

func TestRunDayFullSystem(t *testing.T) {
	tr := atmos.Generate(atmos.AZ, atmos.Apr, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t)
	res := RunDay(day, sys, 10, 2, 0.96)
	if res.SolarWh <= 0 || res.ServiceUnits <= 0 {
		t.Errorf("empty day result: %+v", res)
	}
	if res.SolarMin > res.DaytimeMin+1e-6 {
		t.Error("solar minutes exceed daytime")
	}
	util := res.SolarWh / day.MPPEnergyWh()
	if util < 0.5 || util > 1 {
		t.Errorf("full-system utilization %.3f", util)
	}
}

func TestRunDayDefaults(t *testing.T) {
	tr := atmos.Generate(atmos.CO, atmos.Jul, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t)
	res := RunDay(day, sys, 0, 0, 0) // all defaults
	if res.SolarWh <= 0 {
		t.Errorf("defaulted run produced nothing: %+v", res)
	}
}
