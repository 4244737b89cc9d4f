package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConverterRelations(t *testing.T) {
	c := NewConverter()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.K = 3
	if got := c.LoadVoltage(36); got != 12 {
		t.Errorf("LoadVoltage(36) = %v, want 12", got)
	}
	if got := c.PanelVoltage(12); got != 36 {
		t.Errorf("PanelVoltage(12) = %v, want 36", got)
	}
	// Power conservation up to efficiency: Vout·Iout = η·Vin·Iin.
	vin, iin := 36.0, 5.0
	pout := c.LoadVoltage(vin) * c.LoadCurrent(iin)
	if want := vin * iin * c.Efficiency; math.Abs(pout-want) > 1e-9 {
		t.Errorf("power out = %v, want %v", pout, want)
	}
}

func TestConverterPowerConservationProperty(t *testing.T) {
	c := NewConverter()
	prop := func(kRaw, vRaw, iRaw uint8) bool {
		c.SetRatio(1 + float64(kRaw)/64)
		vin := 10 + float64(vRaw)/4
		iin := float64(iRaw) / 32
		pout := c.LoadVoltage(vin) * c.LoadCurrent(iin)
		return math.Abs(pout-vin*iin*c.Efficiency) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestConverterStepClamps(t *testing.T) {
	c := NewConverter()
	c.K = c.KMax - c.DeltaK/2
	if !c.Step(1) {
		t.Error("step toward max should still move to the clamp")
	}
	if c.K != c.KMax {
		t.Errorf("K = %v, want clamped to %v", c.K, c.KMax)
	}
	if c.Step(1) {
		t.Error("step at max should report no change")
	}
	c.K = c.KMin
	if c.Step(-1) {
		t.Error("step below min should report no change")
	}
	c.Step(5)
	if math.Abs(c.K-(c.KMin+5*c.DeltaK)) > 1e-12 {
		t.Errorf("multi-step K = %v", c.K)
	}
	c.SetRatio(99)
	if c.K != c.KMax {
		t.Error("SetRatio should clamp high")
	}
	c.SetRatio(-1)
	if c.K != c.KMin {
		t.Error("SetRatio should clamp low")
	}
}

func TestConverterValidate(t *testing.T) {
	bad := []Converter{
		{K: 1, KMin: 0, KMax: 5, DeltaK: 0.1, Efficiency: 0.9},
		{K: 9, KMin: 1, KMax: 5, DeltaK: 0.1, Efficiency: 0.9},
		{K: 2, KMin: 1, KMax: 5, DeltaK: 0, Efficiency: 0.9},
		{K: 2, KMin: 1, KMax: 5, DeltaK: 0.1, Efficiency: 0},
		{K: 2, KMin: 1, KMax: 5, DeltaK: 0.1, Efficiency: 1.2},
		{K: 2, KMin: 5, KMax: 1, DeltaK: 0.1, Efficiency: 0.9},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("converter %d should be invalid", i)
		}
	}
}

func TestTransferSwitch(t *testing.T) {
	ts := NewTransferSwitch(Utility)
	if ts.Source() != Utility {
		t.Error("initial source wrong")
	}
	if ts.Select(Utility) {
		t.Error("selecting same source should be a no-op")
	}
	if !ts.Select(Solar) || ts.Source() != Solar {
		t.Error("switch to solar failed")
	}
	ts.Select(Utility)
	if ts.Switches() != 2 {
		t.Errorf("switches = %d, want 2", ts.Switches())
	}
}

func TestEnergyMeter(t *testing.T) {
	var m EnergyMeter
	m.Add(Solar, 120, 30)  // 60 Wh
	m.Add(Utility, 60, 60) // 60 Wh
	m.Add(Solar, 40, 15)   // 10 Wh
	if got := m.EnergyWh(Solar); got != 70 {
		t.Errorf("solar Wh = %v, want 70", got)
	}
	if got := m.EnergyWh(Utility); got != 60 {
		t.Errorf("utility Wh = %v, want 60", got)
	}
}

func TestBatteryGradesTable3(t *testing.T) {
	wantDerate := map[string]float64{"High": 0.92, "Moderate": 0.81, "Low": 0.70}
	for _, g := range BatteryGrades {
		want := wantDerate[g.Name]
		if math.Abs(g.Derating()-want) > 0.005 {
			t.Errorf("%s derating = %.3f, want ≈ %.2f", g.Name, g.Derating(), want)
		}
	}
	if !strings.Contains(BatteryHigh.String(), "92") {
		t.Errorf("grade string: %s", BatteryHigh)
	}
}

func TestBatterySystemHarvestDraw(t *testing.T) {
	b := NewBatterySystem(0.9)
	b.Harvest(100, 60) // 100 W for 1 h → 90 Wh stored
	if got := b.StoredWh(); math.Abs(got-90) > 1e-9 {
		t.Fatalf("stored = %v, want 90", got)
	}
	// Draw 180 W for 20 minutes = 60 Wh.
	if got := b.Draw(180, 20); got != 20 {
		t.Errorf("full draw minutes = %v, want 20", got)
	}
	// Remaining 30 Wh supports 180 W for 10 minutes only.
	if got := b.Draw(180, 60); math.Abs(got-10) > 1e-9 {
		t.Errorf("partial draw minutes = %v, want 10", got)
	}
	if b.StoredWh() != 0 {
		t.Errorf("stored after exhaustion = %v", b.StoredWh())
	}
	// Degenerate inputs.
	b.Harvest(-5, 10)
	if b.StoredWh() != 0 {
		t.Error("negative harvest should be ignored")
	}
	if got := b.Draw(0, 15); got != 15 {
		t.Error("zero-power draw should always succeed")
	}
}

func TestBatteryConservation(t *testing.T) {
	// Property: drawn + stored == harvested×eff for any op sequence, where
	// drawn totals the energy each Draw's supported minutes deliver.
	prop := func(ops []uint16) bool {
		b := NewBatterySystem(0.85)
		harvested, drawn := 0.0, 0.0
		for i, op := range ops {
			p := float64(op % 200)
			if i%2 == 0 {
				b.Harvest(p, 10)
				harvested += p * 10 / 60 * 0.85
			} else {
				drawn += p * b.Draw(p, 10) / 60
			}
		}
		return math.Abs(drawn+b.StoredWh()-harvested) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
