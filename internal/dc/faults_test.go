package dc

import (
	"reflect"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
)

func faultTestDay(t *testing.T) *sim.SolarDay {
	t.Helper()
	tr := atmos.Generate(atmos.AZ, atmos.Apr, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	return day
}

func TestRunDayFaultsDisarmedIdentical(t *testing.T) {
	day := faultTestDay(t)
	clean := RunDay(day, testCluster(t, 4, 25, 0), 2, nil)
	for _, s := range []*fault.Schedule{
		nil,
		{},
		fault.NewSchedule(0, fault.Injector{Kind: fault.KindCloud, W: fault.Window{T0: 600, T1: 700}, I: 0}),
	} {
		got := RunDay(day, testCluster(t, 4, 25, 0), 2, s)
		if !reflect.DeepEqual(clean, got) {
			t.Errorf("disarmed schedule %v diverges from the clean run", s)
		}
	}
}

func TestRunDayFaultsCloudBurst(t *testing.T) {
	day := faultTestDay(t)
	clean := RunDay(day, testCluster(t, 4, 25, 0), 2, nil)
	s := fault.NewSchedule(0, fault.Injector{Kind: fault.KindCloud, W: fault.Window{T0: 600, T1: 720}, I: 0.9})
	res := RunDay(day, testCluster(t, 4, 25, 0), 2, s)
	if res.FaultWindows != 1 {
		t.Errorf("fault windows = %d, want 1", res.FaultWindows)
	}
	if res.SolarWh >= clean.SolarWh {
		t.Errorf("deep mid-day burst cost nothing: %.1f vs clean %.1f Wh", res.SolarWh, clean.SolarWh)
	}
	if res.SolarWh <= 0.25*clean.SolarWh {
		t.Errorf("two-hour burst should not erase the day: %.1f vs clean %.1f Wh", res.SolarWh, clean.SolarWh)
	}
}

func TestRunDayFaultsCoreFailRestoresCaps(t *testing.T) {
	day := faultTestDay(t)
	clean := RunDay(day, testCluster(t, 4, 25, 0), 2, nil)
	c := testCluster(t, 4, 25, 0)
	s := fault.NewSchedule(0, fault.Injector{Kind: fault.KindCoreFail, W: fault.Window{T0: 600, T1: 700}, I: 0.5})
	res := RunDay(day, c, 2, s)
	if res.GInstrSolar >= clean.GInstrSolar {
		t.Errorf("half the cores failing cost nothing: %.0f vs %.0f", res.GInstrSolar, clean.GInstrSolar)
	}
	// The caps are lifted before the cluster is handed back.
	for _, n := range c.Nodes {
		top := n.Chip.NumLevels() - 1
		for i := 0; i < n.Chip.NumCores(); i++ {
			if cap := n.Chip.LevelCap(i); cap != top {
				t.Fatalf("node %s core %d still capped at %d after the run", n.Name, i, cap)
			}
		}
	}
}
