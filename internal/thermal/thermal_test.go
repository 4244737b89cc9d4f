package thermal

import (
	"math"
	"testing"

	"solarcore/internal/mcore"
	"solarcore/internal/workload"
)

func testChip(t *testing.T) *mcore.Chip {
	t.Helper()
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, err := workload.MixByName("H1")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(chip); err != nil {
		t.Fatal(err)
	}
	return chip
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{RjaCPerW: 0, TauMin: 1, TMaxC: 95, THystC: 5},
		{RjaCPerW: 1, TauMin: 0, TMaxC: 95, THystC: 5},
		{RjaCPerW: 1, TauMin: 1, TMaxC: 0, THystC: 0},
		{RjaCPerW: 1, TauMin: 1, TMaxC: 50, THystC: 60},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
	if _, err := NewModel(nil, DefaultConfig(), 25); err == nil {
		t.Error("nil chip should error")
	}
}

func TestWarmupApproachesSteadyState(t *testing.T) {
	chip := testChip(t)
	chip.SetAllLevels(3)
	m, err := NewModel(chip, DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	p := chip.CorePower(0)
	want := m.SteadyState(p, 25)
	for i := 0; i < 50; i++ {
		m.Advance(0.1, 25)
		if m.Throttled(0) {
			t.Fatalf("mid-level core should not throttle (T=%.1f)", m.Temp(0))
		}
	}
	if math.Abs(m.Temp(0)-want) > 0.5 {
		t.Errorf("after warm-up T=%.1f °C, steady state %.1f °C", m.Temp(0), want)
	}
}

func TestGatedCoreCoolsToAmbient(t *testing.T) {
	chip := testChip(t)
	chip.SetAllLevels(5)
	m, _ := NewModel(chip, DefaultConfig(), 30)
	for i := 0; i < 40; i++ {
		m.Advance(0.1, 30)
	}
	chip.SetAllLevels(mcore.Gated)
	for i := 0; i < 60; i++ {
		m.Advance(0.1, 30)
	}
	if math.Abs(m.Temp(3)-30) > 0.5 {
		t.Errorf("gated core at %.1f °C, want ambient 30", m.Temp(3))
	}
}

func TestHotCoreThrottles(t *testing.T) {
	// A desert afternoon: 45 °C ambient, art-class cores flat out. Steady
	// state ≈ 45 + 27·1.8 ≈ 94-97 °C — the governor must intervene.
	chip := testChip(t)
	chip.SetAllLevels(5)
	cfg := DefaultConfig()
	cfg.TMaxC = 85 // stricter trip to force the scenario
	m, err := NewModel(chip, cfg, 45)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Advance(0.1, 45)
	}
	if m.ThrottleEvents() == 0 {
		t.Fatalf("no throttling at MaxTemp %.1f °C", m.MaxTemp())
	}
	// The governor must hold the fleet near/below the trip point.
	if m.MaxTemp() > cfg.TMaxC+3 {
		t.Errorf("governor lost control: %.1f °C", m.MaxTemp())
	}
	throttledSomewhere := false
	for i := 0; i < chip.NumCores(); i++ {
		if m.Throttled(i) || chip.Level(i) < 5 {
			throttledSomewhere = true
		}
	}
	if !throttledSomewhere {
		t.Error("no core was actually stepped down")
	}
}

func TestHysteresisRearm(t *testing.T) {
	chip := testChip(t)
	chip.SetAllLevels(5)
	cfg := DefaultConfig()
	cfg.TMaxC = 80
	m, _ := NewModel(chip, cfg, 45)
	for i := 0; i < 80; i++ {
		m.Advance(0.1, 45)
	}
	// Cool everything: gate the chip, drop ambient.
	chip.SetAllLevels(mcore.Gated)
	for i := 0; i < 200; i++ {
		m.Advance(0.1, 20)
	}
	for i := 0; i < chip.NumCores(); i++ {
		if m.Throttled(i) {
			t.Errorf("core %d still flagged after full cooldown (%.1f °C)", i, m.Temp(i))
		}
	}
}

func TestThrottleInteractsWithAllocation(t *testing.T) {
	// After throttling, total chip power must drop — the watts the
	// allocator thought it spent are partially revoked by physics.
	chip := testChip(t)
	chip.SetAllLevels(5)
	before := chip.Power()
	cfg := DefaultConfig()
	cfg.TMaxC = 75
	m, _ := NewModel(chip, cfg, 48)
	for i := 0; i < 150; i++ {
		m.Advance(0.1, 48)
	}
	if after := chip.Power(); after >= before {
		t.Errorf("throttling left chip power unchanged: %.1f W", after)
	}
}

func TestPeakIsHighWaterMark(t *testing.T) {
	chip := testChip(t)
	chip.SetAllLevels(5)
	m, _ := NewModel(chip, DefaultConfig(), 30)
	for i := 0; i < 60; i++ {
		m.Advance(0.1, 30)
	}
	hot := m.Peak()
	chip.SetAllLevels(mcore.Gated)
	for i := 0; i < 200; i++ {
		m.Advance(0.1, 20)
	}
	if m.Peak() != hot {
		t.Errorf("peak moved after cooldown: %v vs %v", m.Peak(), hot)
	}
	if m.MaxTemp() >= hot {
		t.Error("current temp should be below the historical peak after cooldown")
	}
}
