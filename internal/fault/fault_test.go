package fault

import (
	"errors"
	"math"
	"slices"
	"sync"
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
		{"zero intensity", NewSchedule(0, Injector{Kind: KindCloud, W: Window{600, 660}, I: 0}), false},
		{"empty window", NewSchedule(0, Injector{Kind: KindCloud, W: Window{660, 600}, I: 0.5}), false},
		{"armed", NewSchedule(0, Injector{Kind: KindCloud, W: Window{600, 660}, I: 0.5}), true},
		{"mixed", NewSchedule(0,
			Injector{Kind: KindCloud, W: Window{600, 660}, I: 0},
			Injector{Kind: KindSensorDrop, W: Window{700, 720}, I: 0.3}), true},
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
	// Each kind at zero intensity must not perturb its channel even when
	// its effect is evaluated directly inside its window.
	const minute = 630.0
	w := Window{600, 660}
	op := power.Operating{VPanel: 30, IPanel: 4, VLoad: 12, ILoad: 9.6}
	op.PLoad = op.VLoad * op.ILoad
	zero := func(kind string) Injector { return Injector{Kind: kind, W: w, I: 0} }

	if s := cloudScale(zero(KindCloud), 1, minute); s != 1 {
		t.Errorf("cloud zero intensity scales irradiance by %v", s)
	}
	for _, kind := range []string{KindSensorStuck, KindSensorBias, KindSensorDrop} {
		a := armedInjector{Injector: zero(kind), seed: 1, bias: 1}
		if got := sense(&a, op); got != op {
			t.Errorf("%s zero intensity altered the reading: %+v", kind, got)
		}
	}
	// The power-path kinds act only through the Runtime, which leaves a
	// zero-intensity injector out.
	for _, kind := range []string{KindStringCut, KindConvStuck, KindConvDerate} {
		rt := NewSchedule(0, zero(kind)).Runtime()
		rt.At(minute)
		if s := rt.GeneratorScale(); s != 1 {
			t.Errorf("%s zero intensity scales generator by %v", kind, s)
		}
		if stuck, eff := rt.Converter(); stuck || eff != 1 {
			t.Errorf("%s zero intensity: stuck=%v eff=%v", kind, stuck, eff)
		}
	}
	if n := failedCores(zero(KindCoreFail), 16); n != 0 {
		t.Errorf("core-fail zero intensity kills %d cores", n)
	}
	if cap := coreCap(zero(KindCoreThrottle), 0, 16, 5); cap != 5 {
		t.Errorf("core-throttle zero intensity caps at %d", cap)
	}
	if fires(zero(KindSolver), 1, minute) {
		t.Error("solver zero intensity fires")
	}
}

func TestWindowGating(t *testing.T) {
	rt := NewSchedule(7, Injector{Kind: KindCloud, W: Window{600, 660}, I: 1}).Runtime()
	scale := func(minute float64) float64 {
		rt.At(minute)
		return rt.IrradianceScale()
	}
	if s := scale(599.9); s != 1 || rt.PowerPathActive() {
		t.Errorf("before window: scale %v, power path active %v", s, rt.PowerPathActive())
	}
	if s := scale(660); s != 1 || rt.PowerPathActive() {
		t.Errorf("at window close (half-open): scale %v, power path active %v", s, rt.PowerPathActive())
	}
	if s := scale(630); s >= 1 || !rt.PowerPathActive() {
		t.Errorf("mid-window full burst barely scales: %v", s)
	}
	if got := rt.Close(); got != nil {
		t.Errorf("Close before any Edges call = %v", got)
	}
	rt.Edges()
	if got := rt.Close(); len(got) != 1 || got[0].Kind != KindCloud {
		t.Errorf("Close inside the window = %v", got)
	}
	if closed, opened := rt.Edges(); closed != nil || opened != nil {
		t.Errorf("edges after Close: closed %v, opened %v", closed, opened)
	}
}

func TestRuntimeEdges(t *testing.T) {
	cloud := Injector{Kind: KindCloud, W: Window{600, 700}, I: 1}
	cut := Injector{Kind: KindStringCut, W: Window{650, 750}, I: 0.5}
	drop := Injector{Kind: KindSensorDrop, W: Window{600, 660}, I: 1}
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
		rt.At(c.minute)
		closed, opened := rt.Edges()
		if !slices.Equal(closed, c.closed) || !slices.Equal(opened, c.opened) {
			t.Errorf("Edges(%v) = closed %v, opened %v; want %v, %v",
				c.minute, closed, opened, c.closed, c.opened)
		}
	}
	var nilRT *Runtime
	nilRT.At(600)
	if closed, opened := nilRT.Edges(); closed != nil || opened != nil {
		t.Errorf("nil runtime reports edges: %v, %v", closed, opened)
	}
}

func TestRuntimeCapCores(t *testing.T) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	top := chip.NumLevels() - 1
	rt := NewSchedule(0, Injector{Kind: KindCoreFail, W: Window{600, 700}, I: 0.5}).Runtime()
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
	capAt := func(minute float64, capped bool) bool {
		rt.At(minute)
		return rt.CapCores(chip, capped)
	}
	if capAt(599, false) {
		t.Error("caps installed before the window")
	}
	if !capAt(650, false) {
		t.Fatal("no caps inside the window")
	}
	half := chip.NumCores() / 2
	if failed, free := caps(); failed != half || free != chip.NumCores()-half {
		t.Errorf("inside the window: %d failed, %d free; want %d of %d failed",
			failed, free, half, chip.NumCores())
	}
	if capAt(700, true) {
		t.Error("caps still reported after the window")
	}
	if failed, free := caps(); failed != 0 || free != chip.NumCores() {
		t.Errorf("after the window: %d failed, %d free; want every cap lifted", failed, free)
	}
	// The end-of-run restore: a nil runtime lifts caps installed earlier.
	capAt(650, false)
	if (*Runtime)(nil).CapCores(chip, true) {
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
			Injector{Kind: KindCloud, W: Window{500, 700}, I: 0.8},
			Injector{Kind: KindSensorDrop, W: Window{500, 700}, I: 0.5},
		).Runtime()
	}
	a, b := mk(1), mk(1)
	other := mk(2)
	diverged := false
	at := func(m float64, rts ...*Runtime) {
		for _, rt := range rts {
			rt.At(m)
		}
	}
	for m := 500.0; m < 700; m++ {
		at(m, a, b, other)
		if a.IrradianceScale() != b.IrradianceScale() {
			t.Fatalf("same seed diverged at minute %v", m)
		}
		op := power.Operating{VLoad: 12, ILoad: 5, PLoad: 60}
		if a.Sense(op) != b.Sense(op) {
			t.Fatalf("sense streams diverged at minute %v", m)
		}
		if a.IrradianceScale() != other.IrradianceScale() {
			diverged = true
		}
	}
	// Out-of-order replay: hash01 is stateless, so revisiting an earlier
	// minute reproduces its value.
	at(550, a)
	at(690, b)
	at(550, b)
	if a.IrradianceScale() != b.IrradianceScale() {
		t.Fatal("out-of-order revisit diverged")
	}
	if !diverged {
		t.Error("different seeds never diverged over 200 minutes")
	}
}

func TestSensorStuckFreezesFirstReading(t *testing.T) {
	a := armedInjector{Injector: Injector{Kind: KindSensorStuck, W: Window{600, 660}, I: 1}}
	first := power.Operating{VLoad: 12, ILoad: 5, PLoad: 60}
	got := sense(&a, first)
	if got.PLoad != first.VLoad*first.ILoad {
		t.Errorf("first in-window reading changed: %+v", got)
	}
	later := power.Operating{VLoad: 6, ILoad: 1, PLoad: 6}
	got = sense(&a, later)
	if got.VLoad != 12 || got.ILoad != 5 {
		t.Errorf("full-intensity stuck sensor leaked the live reading: %+v", got)
	}
}

func TestSensorDropoutFraction(t *testing.T) {
	inj := Injector{Kind: KindSensorDrop, W: Window{0, 10000}, I: 0.5}
	dropped := 0
	for m := 0; m < 10000; m++ {
		if fires(inj, 9, float64(m)) {
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
		inj := Injector{Kind: KindCoreFail, W: Window{0, 1}, I: c.i}
		if got := failedCores(inj, c.cores); got != c.want {
			t.Errorf("failedCores(%v, %d cores) = %d, want %d", c.i, c.cores, got, c.want)
		}
	}
	inj := Injector{Kind: KindCoreFail, W: Window{0, 1}, I: 0.5}
	if cap := coreCap(inj, 0, 4, 5); cap != mcore.Gated {
		t.Errorf("failed core caps at %d, want Gated (-1)", cap)
	}
	if cap := coreCap(inj, 3, 4, 5); cap != 5 {
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
	rt := NewSchedule(3, Injector{Kind: KindSolver, W: Window{600, 700}, I: 1}).Runtime()
	rt.At(650)
	if err := rt.SolverErr(); !errors.Is(err, ErrSolverFault) {
		t.Errorf("runtime solver fault not typed: %v", err)
	}
	rt.At(500)
	if err := rt.SolverErr(); err != nil {
		t.Errorf("solver fault outside window: %v", err)
	}
}

func TestRuntimeComposition(t *testing.T) {
	rt := NewSchedule(5,
		Injector{Kind: KindConvStuck, W: Window{600, 700}, I: 1},
		Injector{Kind: KindConvDerate, W: Window{650, 750}, I: 0.2},
		Injector{Kind: KindCoreThrottle, W: Window{600, 700}, I: 0.5},
		Injector{Kind: KindCoreFail, W: Window{600, 700}, I: 0.1},
	).Runtime()

	converter := func(minute float64) (bool, float64) {
		rt.At(minute)
		return rt.Converter()
	}
	stuck, eff := converter(620)
	if !stuck || eff != 1 {
		t.Errorf("stuck-only region: stuck=%v eff=%v", stuck, eff)
	}
	stuck, eff = converter(660)
	if !stuck || math.Abs(eff-0.8) > 1e-12 {
		t.Errorf("overlap region: stuck=%v eff=%v, want true, 0.8", stuck, eff)
	}
	stuck, eff = converter(720)
	if stuck || math.Abs(eff-0.8) > 1e-12 {
		t.Errorf("derate-only region: stuck=%v eff=%v", stuck, eff)
	}
	if !rt.PowerPathActive() {
		t.Error("PowerPathActive false inside the derate window")
	}
	rt.At(800)
	if rt.PowerPathActive() {
		t.Error("PowerPathActive true after every window")
	}

	// Tightest core cap wins: core 0 is failed (Gated beats throttle),
	// the rest are throttled to half the top level.
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	top := chip.NumLevels() - 1
	rt.At(650)
	if !rt.CapCores(chip, false) {
		t.Fatal("no caps inside the core-fault windows")
	}
	if cap := chip.LevelCap(0); cap != mcore.Gated {
		t.Errorf("failed core composed cap %d, want Gated", cap)
	}
	if cap, want := chip.LevelCap(chip.NumCores()-1), top/2; cap != want {
		t.Errorf("throttled core composed cap %d, want %d", cap, want)
	}
	rt.At(750)
	if rt.CapCores(chip, true) || chip.LevelCap(0) != top {
		t.Error("caps survive the core-fault windows")
	}
}

func TestScheduleSharedAcrossRuns(t *testing.T) {
	// One parsed schedule drives two concurrent runs: each builds its own
	// Runtime, both replay the same values, and the schedule is left
	// exactly as parsed (no derived seed written back).
	s, err := ParseSpec("cloud:t0=600,t1=700,i=0.8;sensor-drop:t0=620,t1=680,i=0.5;solver:t0=650,t1=700,i=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(s.Injectors)
	var sums [2]float64
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := s.Runtime()
			for m := 600.0; m < 700; m++ {
				rt.At(m)
				op := rt.Sense(power.Operating{VLoad: 12, ILoad: 5, PLoad: 60})
				sums[g] += rt.IrradianceScale() + op.PLoad
				if rt.SolverErr() != nil {
					sums[g]++
				}
			}
		}()
	}
	wg.Wait()
	if sums[0] != sums[1] {
		t.Errorf("concurrent runs of one schedule diverged: %v vs %v", sums[0], sums[1])
	}
	if !slices.Equal(s.Injectors, want) {
		t.Errorf("Runtime wrote to its schedule: %+v, parsed %+v", s.Injectors, want)
	}
	for _, inj := range s.Injectors {
		if inj.Seed != 0 {
			t.Errorf("%s carries seed %d after Runtime, parsed 0", inj.Kind, inj.Seed)
		}
	}
}
