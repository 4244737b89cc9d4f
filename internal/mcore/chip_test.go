package mcore

import (
	"math"
	"testing"
	"testing/quick"
)

func newTestChip(t *testing.T) *Chip {
	t.Helper()
	c, err := NewChip(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultConfigMatchesTable4(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cores != 8 {
		t.Errorf("cores = %d, want 8", cfg.Cores)
	}
	if len(cfg.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(cfg.Points))
	}
	wantF := []float64{1.0, 1.3, 1.6, 1.9, 2.2, 2.5}
	wantV := []float64{0.95, 1.05, 1.15, 1.25, 1.35, 1.45}
	for i, p := range cfg.Points {
		if math.Abs(p.FreqGHz-wantF[i]) > 1e-9 {
			t.Errorf("point %d freq = %v, want %v", i, p.FreqGHz, wantF[i])
		}
		if math.Abs(p.VoltV-wantV[i]) > 1e-9 {
			t.Errorf("point %d volt = %v, want %v", i, p.VoltV, wantV[i])
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Cores: 0, Points: LinearPoints(6)},
		{Cores: 8, Points: LinearPoints(6)[:1]},
		{Cores: 8, Points: []OpPoint{{2, 1.2}, {1, 0.9}}},
		{Cores: 8, Points: []OpPoint{{0, 1}, {1, 1.2}}},
		{Cores: 8, Points: LinearPoints(6), LeakWPerV: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestVIDCodes(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.VID(5); got != 0 {
		t.Errorf("VID(top) = %d, want 0", got)
	}
	if got := cfg.VID(0); got != 5 {
		t.Errorf("VID(bottom) = %d, want 5", got)
	}
	if got := cfg.VID(Gated); got != 0x3F {
		t.Errorf("VID(gated) = %#x, want 0x3F", got)
	}
}

func TestSetLevelBounds(t *testing.T) {
	c := newTestChip(t)
	if err := c.SetLevel(0, 5); err != nil {
		t.Errorf("valid level rejected: %v", err)
	}
	if err := c.SetLevel(0, 6); err == nil {
		t.Error("level 6 should be rejected")
	}
	if err := c.SetLevel(0, Gated); err != nil {
		t.Errorf("gating rejected: %v", err)
	}
	if err := c.SetLevel(-1, 0); err == nil {
		t.Error("negative core should be rejected")
	}
	if err := c.SetLevel(8, 0); err == nil {
		t.Error("core 8 should be rejected")
	}
	if err := c.SetActivity(9, ConstantActivity{1, 1}); err == nil {
		t.Error("activity on bad core should be rejected")
	}
	if err := c.SetActivity(0, nil); err == nil {
		t.Error("nil activity should be rejected")
	}
}

func TestPowerMonotoneInLevel(t *testing.T) {
	c := newTestChip(t)
	prev := -1.0
	for lvl := 0; lvl < c.NumLevels(); lvl++ {
		if err := c.SetLevel(0, lvl); err != nil {
			t.Fatal(err)
		}
		p := c.CorePower(0)
		if p <= prev {
			t.Errorf("power at level %d = %v, not increasing", lvl, p)
		}
		prev = p
	}
	c.SetLevel(0, Gated)
	if p := c.CorePower(0); p != 0 {
		t.Errorf("gated power = %v, want 0", p)
	}
	if tp := c.CoreThroughput(0); tp != 0 {
		t.Errorf("gated throughput = %v, want 0", tp)
	}
}

func TestCubicPowerLaw(t *testing.T) {
	// Section 4.3 assumption: with V ∝ f, dynamic power grows roughly as V³.
	cfg := DefaultConfig()
	cfg.LeakWPerV = 0
	cfg.ActiveWatts = 0
	c := MustNewChip(cfg)
	c.SetLevel(0, 0)
	p0 := c.CorePower(0)
	c.SetLevel(0, 5)
	p5 := c.CorePower(0)
	v0, v5 := cfg.Points[0].VoltV, cfg.Points[5].VoltV
	f0, f5 := cfg.Points[0].FreqGHz, cfg.Points[5].FreqGHz
	want := (v5 * v5 * f5) / (v0 * v0 * f0)
	if got := p5 / p0; math.Abs(got-want) > 1e-9 {
		t.Errorf("power ratio = %v, want %v", got, want)
	}
	// The paper approximates P ≈ c·V³; with Table 4's V and f spans the
	// effective exponent of P in V is a bit above 3. Assert superlinear
	// growth in the cubic neighbourhood.
	expo := math.Log(want) / math.Log(v5/v0)
	if expo < 2 || expo > 4.5 {
		t.Errorf("effective power-voltage exponent = %v, want 2-4.5", expo)
	}
}

func TestChipPowerScale(t *testing.T) {
	// The 8-core chip should land in the paper's power regime: tens of
	// watts at the bottom, 120-200 W flat out — comparable to one ~180 W
	// panel, which is what makes the tracking problem interesting.
	c := newTestChip(t)
	c.SetAllLevels(5)
	max := c.Power()
	if max < 110 || max > 220 {
		t.Errorf("max chip power = %.1f W, want 110-220", max)
	}
	c.SetAllLevels(0)
	min := c.Power()
	if min < 15 || min > 100 {
		t.Errorf("all-min chip power = %.1f W, want 15-100", min)
	}
	if mp := c.MinPower(); mp >= min/4 {
		// One ungated core at the bottom point should be ~1/8 of all-min.
		t.Errorf("MinPower = %.1f W, want well below all-min %.1f", mp, min)
	}
}

func TestStepUpDown(t *testing.T) {
	c := newTestChip(t)
	c.SetLevel(0, Gated)
	if !c.StepUp(0) || c.Level(0) != 0 {
		t.Error("StepUp from gated should reach level 0")
	}
	c.SetLevel(0, 5)
	if c.StepUp(0) {
		t.Error("StepUp at top should report false")
	}
	if !c.StepDown(0) || c.Level(0) != 4 {
		t.Error("StepDown from top should reach 4")
	}
	c.SetLevel(0, 0)
	if !c.StepDown(0) || c.Level(0) != Gated {
		t.Error("StepDown from 0 should gate")
	}
	if c.StepDown(0) {
		t.Error("StepDown when gated should report false")
	}
}

func TestDeltaAndTPR(t *testing.T) {
	c := newTestChip(t)
	c.SetActivity(0, ConstantActivity{IPC: 2.0, CeffNF: 2.0})
	c.SetActivity(1, ConstantActivity{IPC: 0.4, CeffNF: 3.5})
	c.SetLevel(0, 2)
	c.SetLevel(1, 2)

	dT, dP, ok := c.DeltaUp(0)
	if !ok || dT <= 0 || dP <= 0 {
		t.Fatalf("DeltaUp = %v, %v, %v", dT, dP, ok)
	}
	// Level must be restored after the probe.
	if c.Level(0) != 2 {
		t.Error("DeltaUp mutated level")
	}
	// High-IPC low-power core 0 has better TPR than low-IPC high-power core 1.
	if c.TPRUp(0) <= c.TPRUp(1) {
		t.Errorf("TPR ordering wrong: %v vs %v", c.TPRUp(0), c.TPRUp(1))
	}

	c.SetLevel(0, 5)
	if _, _, ok := c.DeltaUp(0); ok {
		t.Error("DeltaUp at top should be !ok")
	}
	if tpr := c.TPRUp(0); tpr != 0 {
		t.Errorf("TPRUp at top = %v, want 0", tpr)
	}
	c.SetLevel(0, Gated)
	if _, _, ok := c.DeltaDown(0); ok {
		t.Error("DeltaDown when gated should be !ok")
	}
	dT, dP, ok = c.DeltaUp(0)
	if !ok || dT <= 0 || dP <= 0 {
		t.Error("DeltaUp from gated should work (ungating)")
	}
	if c.Level(0) != Gated {
		t.Error("DeltaUp from gated mutated level")
	}
}

func TestThroughputProportionalToFrequency(t *testing.T) {
	c := newTestChip(t)
	c.SetActivity(3, ConstantActivity{IPC: 1.5, CeffNF: 2.5})
	c.SetLevel(3, 0)
	t0 := c.CoreThroughput(3)
	c.SetLevel(3, 5)
	t5 := c.CoreThroughput(3)
	if math.Abs(t5/t0-2.5) > 1e-9 { // 2.5 GHz / 1.0 GHz
		t.Errorf("throughput ratio = %v, want 2.5", t5/t0)
	}
}

func TestLevelsSnapshotRoundTrip(t *testing.T) {
	c := newTestChip(t)
	c.SetLevel(0, 3)
	c.SetLevel(4, Gated)
	snap := c.Levels()
	c.SetAllLevels(5)
	for i, l := range snap {
		if err := c.SetLevel(i, l); err != nil {
			t.Fatal(err)
		}
	}
	if c.Level(0) != 3 || c.Level(4) != Gated || c.Level(1) != 0 {
		t.Errorf("restore mismatch: %v", c.Levels())
	}
	// Mutating the snapshot must not touch the chip.
	snap[0] = 5
	if c.Level(0) != 3 {
		t.Error("Levels() aliases internal state")
	}
}

func TestPowerAdditivity(t *testing.T) {
	// Property: chip power is the sum of core powers for random level
	// assignments.
	c := newTestChip(t)
	prop := func(raw [8]uint8) bool {
		for i, r := range raw {
			lvl := int(r%7) - 1 // -1..5
			if err := c.SetLevel(i, lvl); err != nil {
				return false
			}
		}
		sum := 0.0
		for i := 0; i < 8; i++ {
			sum += c.CorePower(i)
		}
		return math.Abs(sum-c.Power()) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMustNewChipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewChip should panic on invalid config")
		}
	}()
	MustNewChip(Config{})
}

func TestAccessorsAndTransitions(t *testing.T) {
	c := newTestChip(t)
	if c.Config().Cores != 8 || c.NumCores() != 8 {
		t.Error("accessors wrong")
	}
	start := c.Transitions()
	c.StepUp(0)   // gated? starts at 0 → 1
	c.StepDown(0) // back
	c.SetLevel(1, 4)
	c.SetLevel(1, 4) // no-op: same level
	if got := c.Transitions() - start; got != 3 {
		t.Errorf("transitions = %d, want 3 (no-op SetLevel must not count)", got)
	}
	// Delta probes must not count as transitions.
	before := c.Transitions()
	c.DeltaUp(2)
	c.DeltaDown(1)
	c.TPRUp(2)
	c.TPRDown(1)
	if c.Transitions() != before {
		t.Error("probes counted as transitions")
	}
}

func TestTPRDownOrdering(t *testing.T) {
	c := newTestChip(t)
	c.SetActivity(0, ConstantActivity{IPC: 2.0, CeffNF: 2.0})
	c.SetActivity(1, ConstantActivity{IPC: 0.4, CeffNF: 3.5})
	c.SetAllLevels(3)
	// Stepping down the high-IPC core loses more throughput per watt.
	if c.TPRDown(0) <= c.TPRDown(1) {
		t.Errorf("TPRDown ordering wrong: %v vs %v", c.TPRDown(0), c.TPRDown(1))
	}
	c.SetLevel(2, Gated)
	if c.TPRDown(2) != 0 {
		t.Error("gated TPRDown should be 0")
	}
}
