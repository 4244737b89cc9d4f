package fault

import (
	"errors"
	"math"
	"testing"

	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
	"solarcore/internal/power"
)

func TestScheduleArmed(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		want bool
	}{
		{"nil", nil, false},
		{"empty", &Schedule{}, false},
		{"zero intensity", NewSchedule(0, &CloudBurst{W: Window{600, 660}, I: 0}), false},
		{"empty window", NewSchedule(0, &CloudBurst{W: Window{660, 600}, I: 0.5}), false},
		{"armed", NewSchedule(0, &CloudBurst{W: Window{600, 660}, I: 0.5}), true},
		{"mixed", NewSchedule(0,
			&CloudBurst{W: Window{600, 660}, I: 0},
			&SensorDropout{W: Window{700, 720}, I: 0.3}), true},
	}
	for _, c := range cases {
		if got := c.s.Armed(); got != c.want {
			t.Errorf("%s: Armed() = %v, want %v", c.name, got, c.want)
		}
		if c.want != (c.s.Runtime() != nil) {
			t.Errorf("%s: Runtime() nil-ness disagrees with Armed()", c.name)
		}
	}
}

func TestZeroIntensityInjectorsAreNoOps(t *testing.T) {
	// Each injector at zero intensity must not perturb its channel even
	// when evaluated directly inside its window.
	const minute = 630.0
	w := Window{600, 660}
	op := power.Operating{VPanel: 30, IPanel: 4, VLoad: 12, ILoad: 9.6}
	op.PLoad = op.VLoad * op.ILoad

	if s := (&CloudBurst{W: w, I: 0, Seed: 1}).IrradianceScale(minute); s != 1 {
		t.Errorf("CloudBurst zero intensity scales irradiance by %v", s)
	}
	if s := (&StringDisconnect{W: w, I: 0}).GeneratorScale(minute); s != 1 {
		t.Errorf("StringDisconnect zero intensity scales generator by %v", s)
	}
	var st SenseState
	if got := (&SensorStuck{W: w, I: 0}).Sense(minute, op, &st); got != op {
		t.Errorf("SensorStuck zero intensity altered the reading: %+v", got)
	}
	var st2 SenseState
	if got := (&SensorBias{W: w, I: 0}).Sense(minute, op, &st2); got != op {
		t.Errorf("SensorBias zero intensity altered the reading: %+v", got)
	}
	var st3 SenseState
	if got := (&SensorDropout{W: w, I: 0, Seed: 1}).Sense(minute, op, &st3); got != op {
		t.Errorf("SensorDropout zero intensity altered the reading: %+v", got)
	}
	if stuck, eff := (&ConverterStuck{W: w, I: 0}).Converter(minute); stuck || eff != 1 {
		t.Errorf("ConverterStuck zero intensity: stuck=%v eff=%v", stuck, eff)
	}
	if stuck, eff := (&ConverterDerate{W: w, I: 0}).Converter(minute); stuck || eff != 1 {
		t.Errorf("ConverterDerate zero intensity: stuck=%v eff=%v", stuck, eff)
	}
	if n := (&CoreFail{W: w, I: 0}).Failed(16); n != 0 {
		t.Errorf("CoreFail zero intensity kills %d cores", n)
	}
	if cap := (&CoreThrottle{W: w, I: 0}).CoreCap(minute, 0, 16, 5); cap != 5 {
		t.Errorf("CoreThrottle zero intensity caps at %d", cap)
	}
	if err := (&SolverFault{W: w, I: 0, Seed: 1}).SolverErr(minute); err != nil {
		t.Errorf("SolverFault zero intensity errors: %v", err)
	}
}

func TestWindowGating(t *testing.T) {
	rt := NewSchedule(7, &CloudBurst{W: Window{600, 660}, I: 1}).Runtime()
	if s := rt.IrradianceScale(599.9); s != 1 {
		t.Errorf("before window: scale %v", s)
	}
	if s := rt.IrradianceScale(660); s != 1 {
		t.Errorf("at window close (half-open): scale %v", s)
	}
	if s := rt.IrradianceScale(630); s >= 1 {
		t.Errorf("mid-window full burst barely scales: %v", s)
	}
	if got := rt.Active(630); len(got) != 1 || got[0].Kind() != KindCloud {
		t.Errorf("Active(630) = %v", got)
	}
	if got := rt.Active(661); got != nil {
		t.Errorf("Active past window = %v", got)
	}
}

func TestRuntimeEdges(t *testing.T) {
	cloud := &CloudBurst{W: Window{600, 700}, I: 1}
	cut := &StringDisconnect{W: Window{650, 750}, I: 0.5}
	drop := &SensorDropout{W: Window{600, 660}, I: 1}
	rt := NewSchedule(3, cloud, cut, drop).Runtime()
	cases := []struct {
		minute         float64
		closed, opened []Injector
	}{
		{599, nil, nil},
		{600, nil, []Injector{cloud, drop}},
		{630, nil, nil},
		{660, []Injector{drop}, []Injector{cut}},
		{700, []Injector{cloud}, nil},
		{750, []Injector{cut}, nil},
		{600, nil, []Injector{cloud, drop}}, // edges are relative to the last call
	}
	for _, c := range cases {
		closed, opened := rt.Edges(c.minute)
		if !sameInjectors(closed, c.closed) || !sameInjectors(opened, c.opened) {
			t.Errorf("Edges(%v) = closed %v, opened %v; want %v, %v",
				c.minute, closed, opened, c.closed, c.opened)
		}
	}
	if closed, opened := (*Runtime)(nil).Edges(600); closed != nil || opened != nil {
		t.Errorf("nil runtime reports edges: %v, %v", closed, opened)
	}
}

func sameInjectors(a, b []Injector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRuntimeCapCores(t *testing.T) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	top := chip.NumLevels() - 1
	rt := NewSchedule(0, &CoreFail{W: Window{600, 700}, I: 0.5}).Runtime()
	caps := func() (failed, free int) {
		for i := 0; i < chip.NumCores(); i++ {
			switch chip.LevelCap(i) {
			case mcore.Gated:
				failed++
			case top:
				free++
			}
		}
		return failed, free
	}
	if rt.CapCores(599, chip, false) {
		t.Error("caps installed before the window")
	}
	if !rt.CapCores(650, chip, false) {
		t.Fatal("no caps inside the window")
	}
	half := chip.NumCores() / 2
	if failed, free := caps(); failed != half || free != chip.NumCores()-half {
		t.Errorf("inside the window: %d failed, %d free; want %d of %d failed",
			failed, free, half, chip.NumCores())
	}
	if rt.CapCores(700, chip, true) {
		t.Error("caps still reported after the window")
	}
	if failed, free := caps(); failed != 0 || free != chip.NumCores() {
		t.Errorf("after the window: %d failed, %d free; want every cap lifted", failed, free)
	}
	// The end-of-run restore: a nil runtime lifts caps installed earlier.
	rt.CapCores(650, chip, false)
	if (*Runtime)(nil).CapCores(650, chip, true) {
		t.Error("nil runtime reports caps")
	}
	if failed, _ := caps(); failed != 0 {
		t.Errorf("nil runtime left %d cores failed", failed)
	}
}

func TestDeterminismAcrossRuntimes(t *testing.T) {
	// Two runtimes of the same schedule replay identically, regardless of
	// call order; a different seed diverges.
	mk := func(seed int64) *Runtime {
		return NewSchedule(seed,
			&CloudBurst{W: Window{500, 700}, I: 0.8},
			&SensorDropout{W: Window{500, 700}, I: 0.5},
		).Runtime()
	}
	a, b := mk(1), mk(1)
	other := mk(2)
	diverged := false
	for m := 500.0; m < 700; m++ {
		if a.IrradianceScale(m) != b.IrradianceScale(m) {
			t.Fatalf("same seed diverged at minute %v", m)
		}
		op := power.Operating{VLoad: 12, ILoad: 5, PLoad: 60}
		if a.Sense(m, op) != b.Sense(m, op) {
			t.Fatalf("sense streams diverged at minute %v", m)
		}
		if a.IrradianceScale(m) != other.IrradianceScale(m) {
			diverged = true
		}
	}
	// Out-of-order replay: hash01 is stateless, so revisiting an earlier
	// minute reproduces its value.
	if a.IrradianceScale(550) != b.IrradianceScale(550) {
		t.Fatal("out-of-order revisit diverged")
	}
	if !diverged {
		t.Error("different seeds never diverged over 200 minutes")
	}
}

func TestSensorStuckFreezesFirstReading(t *testing.T) {
	inj := &SensorStuck{W: Window{600, 660}, I: 1}
	var st SenseState
	first := power.Operating{VLoad: 12, ILoad: 5, PLoad: 60}
	got := inj.Sense(610, first, &st)
	if got.PLoad != first.VLoad*first.ILoad {
		t.Errorf("first in-window reading changed: %+v", got)
	}
	later := power.Operating{VLoad: 6, ILoad: 1, PLoad: 6}
	got = inj.Sense(620, later, &st)
	if got.VLoad != 12 || got.ILoad != 5 {
		t.Errorf("full-intensity stuck sensor leaked the live reading: %+v", got)
	}
}

func TestSensorDropoutFraction(t *testing.T) {
	inj := &SensorDropout{W: Window{0, 10000}, I: 0.5, Seed: 9}
	dropped := 0
	for m := 0; m < 10000; m++ {
		if inj.Dropped(float64(m)) {
			dropped++
		}
	}
	if frac := float64(dropped) / 10000; math.Abs(frac-0.5) > 0.05 {
		t.Errorf("dropout fraction %v, want ~0.5", frac)
	}
}

func TestCoreFailCounts(t *testing.T) {
	cases := []struct {
		i     float64
		cores int
		want  int
	}{
		{0.01, 16, 1}, {0.5, 16, 8}, {1, 16, 16}, {0.3, 4, 2},
	}
	for _, c := range cases {
		inj := &CoreFail{W: Window{0, 1}, I: c.i}
		if got := inj.Failed(c.cores); got != c.want {
			t.Errorf("Failed(%v, %d cores) = %d, want %d", c.i, c.cores, got, c.want)
		}
	}
	inj := &CoreFail{W: Window{0, 1}, I: 0.5}
	if cap := inj.CoreCap(0.5, 0, 4, 5); cap != -1 {
		t.Errorf("failed core caps at %d, want Gated (-1)", cap)
	}
	if cap := inj.CoreCap(0.5, 3, 4, 5); cap != 5 {
		t.Errorf("surviving core caps at %d, want top", cap)
	}
}

func TestSolverErrorTyped(t *testing.T) {
	err := SolverError(630)
	if !errors.Is(err, ErrSolverFault) {
		t.Error("SolverError is not errors.Is ErrSolverFault")
	}
	if !errors.Is(err, mathx.ErrNoConverge) {
		t.Error("SolverError does not wrap the mathx cause")
	}
	rt := NewSchedule(3, &SolverFault{W: Window{600, 700}, I: 1}).Runtime()
	if err := rt.SolverErr(650); !errors.Is(err, ErrSolverFault) {
		t.Errorf("runtime solver fault not typed: %v", err)
	}
	if err := rt.SolverErr(500); err != nil {
		t.Errorf("solver fault outside window: %v", err)
	}
}

func TestRuntimeComposition(t *testing.T) {
	rt := NewSchedule(5,
		&ConverterStuck{W: Window{600, 700}, I: 1},
		&ConverterDerate{W: Window{650, 750}, I: 0.2},
		&CoreThrottle{W: Window{600, 700}, I: 0.5},
		&CoreFail{W: Window{600, 700}, I: 0.1},
	).Runtime()

	stuck, eff := rt.Converter(620)
	if !stuck || eff != 1 {
		t.Errorf("stuck-only region: stuck=%v eff=%v", stuck, eff)
	}
	stuck, eff = rt.Converter(660)
	if !stuck || math.Abs(eff-0.8) > 1e-12 {
		t.Errorf("overlap region: stuck=%v eff=%v, want true, 0.8", stuck, eff)
	}
	stuck, eff = rt.Converter(720)
	if stuck || math.Abs(eff-0.8) > 1e-12 {
		t.Errorf("derate-only region: stuck=%v eff=%v", stuck, eff)
	}

	// Tightest core cap wins: core 0 is failed (Gated beats throttle).
	if cap := rt.CoreCap(650, 0, 16, 5); cap != -1 {
		t.Errorf("failed core composed cap %d, want -1", cap)
	}
	if cap := rt.CoreCap(650, 8, 16, 5); cap != 2 {
		t.Errorf("throttled core composed cap %d, want 2", cap)
	}
	if !rt.ConstrainsCores(650) || rt.ConstrainsCores(750) {
		t.Error("ConstrainsCores window gating wrong")
	}
	if !rt.PowerPathActive(720) || rt.PowerPathActive(800) {
		t.Error("PowerPathActive window gating wrong")
	}
}
