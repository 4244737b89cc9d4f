package mppt

import (
	"math"
	"testing"
	"testing/quick"

	"solarcore/internal/mcore"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/workload"
)

// rig builds a full circuit+chip+controller test setup.
func rig(t *testing.T, mixName string, alloc sched.Allocator, cfg Config) *Controller {
	t.Helper()
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	mix, err := workload.MixByName(mixName)
	if err != nil {
		t.Fatal(err)
	}
	if err := mix.Apply(chip); err != nil {
		t.Fatal(err)
	}
	chip.SetAllLevels(mcore.Gated)
	circuit := power.NewCircuit(pv.NewModule(pv.BP3180N()))
	ctrl, err := New(circuit, chip, alloc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, Config{}); err == nil {
		t.Error("nil dependencies should error")
	}
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	circuit := power.NewCircuit(pv.NewModule(pv.BP3180N()))
	circuit.Conv.DeltaK = 0
	if _, err := New(circuit, chip, sched.OptTPR{}, Config{}); err == nil {
		t.Error("invalid converter should error")
	}
}

func TestTrackReachesNearMPP(t *testing.T) {
	// The core claim of Section 4.2: starting cold, one tracking session
	// pulls the load power close to the panel's maximum available power.
	for _, env := range []pv.Env{
		{Irradiance: 1000, CellTemp: 25},
		{Irradiance: 800, CellTemp: 45},
		{Irradiance: 600, CellTemp: 35},
		{Irradiance: 400, CellTemp: 20},
	} {
		ctrl := rig(t, "HM2", sched.OptTPR{}, Config{MarginSteps: 0})
		res := ctrl.Track(env, 0)
		if res.Overload {
			t.Fatalf("env %+v: unexpected overload", env)
		}
		avail := ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
		if res.Op.PLoad < 0.88*avail {
			t.Errorf("env %+v: tracked %.1f W of %.1f W available (%.0f%%)",
				env, res.Op.PLoad, avail, 100*res.Op.PLoad/avail)
		}
		if res.Op.PLoad > avail*1.001 {
			t.Errorf("env %+v: tracked power %.1f exceeds available %.1f", env, res.Op.PLoad, avail)
		}
	}
}

func TestTrackHoldsNominalRail(t *testing.T) {
	ctrl := rig(t, "M1", sched.OptTPR{}, Config{MarginSteps: 0})
	env := pv.Env{Irradiance: 900, CellTemp: 30}
	res := ctrl.Track(env, 0)
	vNom := ctrl.Circuit.VNominal
	if math.Abs(res.Op.VLoad-vNom) > 0.1*vNom {
		t.Errorf("rail settled at %.2f V, want ≈ %.0f V", res.Op.VLoad, vNom)
	}
}

func TestTrackAllAllocators(t *testing.T) {
	// Every Table 6 MPPT policy must track, not just Opt.
	env := pv.Env{Irradiance: 750, CellTemp: 35}
	for _, name := range sched.Names() {
		alloc, _ := sched.ByName(name)
		ctrl := rig(t, "ML2", alloc, Config{MarginSteps: 0})
		res := ctrl.Track(env, 0)
		if res.Overload {
			t.Fatalf("%s: unexpected overload", alloc.Name())
		}
		avail := ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
		if res.Op.PLoad < 0.80*avail {
			t.Errorf("%s: tracked only %.0f%% of available", alloc.Name(), 100*res.Op.PLoad/avail)
		}
	}
}

func TestTrackOverloadInDeepShade(t *testing.T) {
	// A panel at 15 W/m² cannot carry even one gated-down core.
	ctrl := rig(t, "H1", sched.OptTPR{}, Config{})
	res := ctrl.Track(pv.Env{Irradiance: 15, CellTemp: 10}, 0)
	if res.Solar() {
		t.Errorf("expected non-solar period, got %+v", res)
	}
	// Total darkness takes the explicit overload path.
	res = ctrl.Track(pv.Env{Irradiance: 0, CellTemp: 10}, 10)
	if !res.Overload {
		t.Errorf("expected overload in darkness, got %+v", res)
	}
}

func TestTrackRecoversAfterDarkPeriod(t *testing.T) {
	// Dusk then dawn: the controller must not stay wedged after a dark
	// period leaves k and the chip in odd states.
	ctrl := rig(t, "L1", sched.OptTPR{}, Config{})
	bright := pv.Env{Irradiance: 850, CellTemp: 30}
	dark := pv.Env{Irradiance: 8, CellTemp: 15}

	if res := ctrl.Track(bright, 0); !res.Solar() {
		t.Fatal("bright start should track")
	}
	if res := ctrl.Track(dark, 10); res.Solar() {
		t.Fatal("dark period should not be solar-powered")
	}
	res := ctrl.Track(bright, 20)
	if res.Overload {
		t.Fatal("controller failed to recover after dark period")
	}
	if avail := ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, bright)); res.Op.PLoad < 0.8*avail {
		t.Errorf("post-recovery power %.1f W of %.1f W", res.Op.PLoad, avail)
	}
}

func TestTrackFollowsChangingIrradiance(t *testing.T) {
	// Successive tracking periods under a moving sun: power must follow the
	// budget up and down (the Figure 13/14 behaviour in miniature).
	ctrl := rig(t, "HM2", sched.OptTPR{}, Config{MarginSteps: 1})
	irr := []float64{300, 500, 700, 900, 1000, 900, 700, 500, 300}
	for i, g := range irr {
		env := pv.Env{Irradiance: g, CellTemp: 25 + g/50}
		res := ctrl.Track(env, float64(i*10))
		if res.Overload {
			t.Fatalf("step %d (G=%v): overload", i, g)
		}
		avail := ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
		if res.Op.PLoad < 0.72*avail || res.Op.PLoad > avail*1.001 {
			t.Errorf("step %d (G=%v): power %.1f W vs avail %.1f W", i, g, res.Op.PLoad, avail)
		}
	}
}

func TestMarginStepsReducePower(t *testing.T) {
	env := pv.Env{Irradiance: 800, CellTemp: 30}
	p := make([]float64, 3)
	for m := 0; m < 3; m++ {
		ctrl := rig(t, "M2", sched.OptTPR{}, Config{MarginSteps: m})
		res := ctrl.Track(env, 0)
		p[m] = res.RaisedTo
	}
	if !(p[0] >= p[1] && p[1] >= p[2]) {
		t.Errorf("margin should monotonically shed load: %v", p)
	}
	if p[2] >= p[0] {
		t.Errorf("two margin steps changed nothing: %v", p)
	}
}

func TestTrackStepsBounded(t *testing.T) {
	ctrl := rig(t, "H1", sched.OptTPR{}, Config{MaxSteps: 64})
	res := ctrl.Track(pv.STC, 0)
	if res.Steps > 64+8 {
		t.Errorf("steps = %d, want bounded near 64", res.Steps)
	}
}

func TestTrackPropertyNeverExceedsAvailable(t *testing.T) {
	// Property: across random environments the tracker never settles above
	// the physically available power and never reports a negative one.
	ctrl := rig(t, "ML1", sched.OptTPR{}, Config{})
	prop := func(gRaw, tRaw uint8) bool {
		env := pv.Env{
			Irradiance: float64(gRaw) * 4,    // 0..1020
			CellTemp:   float64(tRaw%60) + 5, // 5..64
		}
		res := ctrl.Track(env, float64(gRaw))
		if res.Overload {
			return true
		}
		avail := ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
		return res.Op.PLoad >= 0 && res.Op.PLoad <= avail*1.005
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	if cfg.MaxSteps != 512 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	neg := Config{MarginSteps: -2}
	neg.fillDefaults()
	if neg.MarginSteps != 0 {
		t.Errorf("negative margin not clamped: %+v", neg)
	}
}
