// Package fault is the simulator's adversarial-conditions layer: a
// deterministic, schedule-driven fault-injection subsystem plus the
// degradation machinery that survives it (the Watchdog state machine in
// watchdog.go).
//
// SolarCore's premise is riding a volatile, battery-less supply; a power
// manager is judged by its behaviour under disturbance, not under the
// well-behaved skies the paper's evaluation replays. A fault.Schedule
// composes injectors — cloud-transient irradiance bursts, I/V sensor
// faults (stuck-at, bias drift, dropout), DC/DC converter faults (stuck
// transfer ratio, efficiency derate), core failure / forced throttle and
// PV string disconnect — each active over a [T0,T1) window with an
// Intensity knob where zero is exactly a no-op. Everything is
// deterministic: stochastic injectors (dropout, burst flicker) derive
// their randomness from a splitmix64 hash of (Schedule.Seed, virtual
// minute), so the same schedule replays bit-identically regardless of
// call order, goroutine interleaving or wall-clock — the repo-wide
// seeded-randomness convention (DESIGN.md §9).
//
// The engine (internal/sim) consults a per-run Runtime at every tracking
// period and sub-sample; when no injector carries a positive intensity
// the Runtime reports Armed() == false and the engine takes the exact
// code path of a fault-free run, making the zero-intensity schedule
// provably byte-identical to no schedule at all (TestFaultNoOpInvariant
// in internal/sim).
package fault

import (
	"errors"
	"fmt"

	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
	"solarcore/internal/power"
)

// ErrSolverFault marks a failure injected into (or surfaced from) the
// pv/mathx operating-point solver path. The engine treats it as a
// degradation trigger — the watchdog falls back to a de-rated
// Fixed-Power budget — instead of aborting the day. Test with
// errors.Is(err, fault.ErrSolverFault).
var ErrSolverFault = errors.New("fault: pv operating-point solver fault")

// SolverError builds the typed error an injected (or detected) solver
// fault surfaces: errors.Is-able against both ErrSolverFault and the
// underlying mathx cause.
//
// unit: minute=min
func SolverError(minute float64) error {
	return fmt.Errorf("%w at minute %.1f: %w", ErrSolverFault, minute, mathx.ErrNoConverge)
}

// Window is a half-open activity interval [T0, T1) in simulation minutes
// since midnight.
type Window struct {
	T0 float64 // unit: min
	T1 float64 // unit: min
}

// Contains reports whether the window covers the given minute.
//
// unit: minute=min
func (w Window) Contains(minute float64) bool { return minute >= w.T0 && minute < w.T1 }

// Empty reports a degenerate window that can never be active.
func (w Window) Empty() bool { return w.T1 <= w.T0 }

// frac returns the window-relative phase of a minute in [0,1].
//
// unit: minute=min, return=ratio
func (w Window) frac(minute float64) float64 {
	if w.Empty() {
		return 0
	}
	return mathx.Clamp((minute-w.T0)/(w.T1-w.T0), 0, 1)
}

// Injector is one scheduled disturbance. Concrete injectors additionally
// implement the capability interfaces below (IrradianceScaler, Senser,
// ConverterMod, CoreMod, SolverMod); the Runtime type-switches on those,
// so a custom injector participates by implementing any subset.
type Injector interface {
	// Kind returns the spec keyword of the injector (see ParseSpec).
	Kind() string
	// Window returns the activity window.
	Window() Window
	// Intensity returns the severity knob in [0,1]; zero is exactly a
	// no-op and the injector is treated as absent.
	//
	// unit: ratio
	Intensity() float64
}

// IrradianceScaler scales the plane-of-array irradiance the panel sees
// (cloud transients).
type IrradianceScaler interface {
	// IrradianceScale returns the multiplicative factor in [0,1] applied
	// to the irradiance at the given minute (1 outside the window).
	//
	// unit: minute=min, return=ratio
	IrradianceScale(minute float64) float64
}

// GeneratorScaler scales the PV generator's current output (string
// disconnects: a fraction of the parallel strings drops off the bus).
type GeneratorScaler interface {
	// GeneratorScale returns the multiplicative factor in [0,1] applied
	// to the generator output current at the given minute.
	//
	// unit: minute=min, return=ratio
	GeneratorScale(minute float64) float64
}

// Senser corrupts the controller's I/V sensor readings at the load rail.
// Implementations receive scratch state that persists for one run (the
// stuck-at injector freezes the first in-window reading there).
type Senser interface {
	// Sense transforms a sensor reading taken at the given minute. The
	// state pointer is this injector's per-run scratch cell.
	//
	// unit: minute=min
	Sense(minute float64, op power.Operating, state *SenseState) power.Operating
}

// SenseState is one Senser's per-run scratch: the frozen reading of a
// stuck-at sensor fault.
type SenseState struct {
	frozen   power.Operating
	hasValue bool
}

// ConverterMod perturbs the DC/DC matching converter.
type ConverterMod interface {
	// Converter returns whether the transfer ratio is stuck (tuning
	// requests ignored) and the multiplicative efficiency factor in
	// [0,1] at the given minute.
	//
	// unit: minute=min, effScale=ratio
	Converter(minute float64) (stuck bool, effScale float64)
}

// CoreMod constrains the multi-core chip (core failure, forced throttle).
type CoreMod interface {
	// CoreCap returns the highest DVFS level the core may occupy at the
	// given minute: top (= levels-1) means unconstrained, mcore.Gated
	// (-1) means the core is failed and forced off.
	//
	// unit: minute=min
	CoreCap(minute float64, core, cores, top int) int
}

// SolverMod injects failures into the operating-point solver path.
type SolverMod interface {
	// SolverErr returns a non-nil typed error (errors.Is ErrSolverFault)
	// when the solver is faulted at the given minute.
	//
	// unit: minute=min
	SolverErr(minute float64) error
}

// Schedule is a deterministic, seeded composition of injectors — the
// whole fault plan for one simulated day. The zero value (and any
// schedule whose injectors all carry zero intensity) is exactly a no-op.
type Schedule struct {
	// Seed drives every stochastic injector through a splitmix64 hash of
	// (Seed, virtual minute); zero picks a fixed default so schedules
	// replay bit-identically by default.
	Seed int64
	// Injectors are the composed disturbances, applied in order.
	Injectors []Injector
}

// NewSchedule composes injectors under one seed.
func NewSchedule(seed int64, injectors ...Injector) *Schedule {
	return &Schedule{Seed: seed, Injectors: injectors}
}

// Armed reports whether any injector can ever perturb the run: a
// positive intensity over a non-empty window. A nil, empty or
// zero-intensity schedule is disarmed and the engine must behave exactly
// as if no schedule were installed.
func (s *Schedule) Armed() bool {
	if s == nil {
		return false
	}
	for _, inj := range s.Injectors {
		if inj.Intensity() > 0 && !inj.Window().Empty() {
			return true
		}
	}
	return false
}

// Runtime is one run's view of a Schedule: the armed injector set plus
// the per-run scratch state (frozen sensor readings). Create a fresh
// Runtime per run; it is not safe for concurrent use, matching the
// single-goroutine hook discipline of the engine.
type Runtime struct {
	seed  int64
	armed []Injector
	state []injectorState // parallel to armed
}

// injectorState is one armed injector's per-run scratch.
type injectorState struct {
	sense SenseState // a Senser's frozen reading
	on    bool       // the window covered the minute of the last Edges call
}

// Runtime builds the per-run state for this schedule. A disarmed
// schedule returns nil, which every Runtime method accepts.
func (s *Schedule) Runtime() *Runtime {
	if !s.Armed() {
		return nil
	}
	rt := &Runtime{seed: s.seed()}
	for i, inj := range s.Injectors {
		if inj.Intensity() <= 0 || inj.Window().Empty() {
			continue
		}
		// Stochastic injectors without an explicit seed inherit a
		// per-injector stream derived from the schedule seed, so two
		// dropout windows in one schedule draw independent sequences.
		if sd, ok := inj.(seedable); ok {
			sd.defaultSeed(rt.seed + int64(i+1)*0x1000193)
		}
		rt.armed = append(rt.armed, inj)
	}
	rt.state = make([]injectorState, len(rt.armed))
	return rt
}

// seedable is implemented by stochastic injectors that accept a default
// seed from the enclosing schedule (a no-op when an explicit Seed was
// set).
type seedable interface {
	defaultSeed(seed int64)
}

// seed resolves the schedule seed, defaulting to a fixed constant so the
// zero value stays deterministic.
func (s *Schedule) seed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 0xFA017 // "fault": fixed default, mirroring mppt's 0x5eed
}

// Armed reports whether this runtime carries any live injector.
func (rt *Runtime) Armed() bool { return rt != nil && len(rt.armed) > 0 }

// Active returns the injectors whose windows cover the given minute, in
// schedule order.
//
// unit: minute=min
func (rt *Runtime) Active(minute float64) []Injector {
	if rt == nil {
		return nil
	}
	var active []Injector
	for _, inj := range rt.armed {
		if inj.Window().Contains(minute) {
			active = append(active, inj)
		}
	}
	return active
}

// Edges reports the window edges crossed since the previous call: the
// injectors that stopped and started covering the minute, each in
// schedule order. The first call compares against an all-inactive set.
// The engine and the cluster loop call it at every sample to emit fault
// begin/end events and count opened windows.
//
// unit: minute=min
func (rt *Runtime) Edges(minute float64) (closed, opened []Injector) {
	if rt == nil {
		return nil, nil
	}
	for i, inj := range rt.armed {
		on := inj.Window().Contains(minute)
		if on == rt.state[i].on {
			continue
		}
		rt.state[i].on = on
		if on {
			opened = append(opened, inj)
		} else {
			closed = append(closed, inj)
		}
	}
	return closed, opened
}

// CapCores installs the level caps of the core faults active at the
// minute on every core of chip and reports whether caps are now
// installed. With no core fault active it lifts the caps when capped
// says a previous call installed them, and leaves the chip alone
// otherwise. A nil Runtime constrains nothing, so calling CapCores on
// nil with capped set lifts every cap: the end-of-run restore.
//
// unit: minute=min
func (rt *Runtime) CapCores(minute float64, chip *mcore.Chip, capped bool) bool {
	constrained := rt.ConstrainsCores(minute)
	if !constrained && !capped {
		return false
	}
	cores, top := chip.NumCores(), chip.NumLevels()-1
	for i := 0; i < cores; i++ {
		cap := top
		if constrained {
			cap = rt.CoreCap(minute, i, cores, top)
		}
		_ = chip.SetLevelCap(i, cap) // CoreCap stays within [Gated, top]
	}
	return constrained
}

// PowerPathActive reports whether any injector perturbs the power path
// (irradiance, generator or converter) at the given minute. When false,
// the engine may use its precomputed clean MPP profile unchanged.
//
// unit: minute=min
func (rt *Runtime) PowerPathActive(minute float64) bool {
	if rt == nil {
		return false
	}
	for _, inj := range rt.armed {
		if !inj.Window().Contains(minute) {
			continue
		}
		switch inj.(type) {
		case IrradianceScaler, GeneratorScaler, ConverterMod:
			return true
		}
	}
	return false
}

// IrradianceScale composes every active irradiance fault at the minute.
//
// unit: minute=min, return=ratio
func (rt *Runtime) IrradianceScale(minute float64) float64 {
	scale := 1.0
	if rt == nil {
		return scale
	}
	for _, inj := range rt.armed {
		if is, ok := inj.(IrradianceScaler); ok && inj.Window().Contains(minute) {
			scale *= mathx.Clamp(is.IrradianceScale(minute), 0, 1)
		}
	}
	return scale
}

// GeneratorScale composes every active generator-output fault.
//
// unit: minute=min, return=ratio
func (rt *Runtime) GeneratorScale(minute float64) float64 {
	scale := 1.0
	if rt == nil {
		return scale
	}
	for _, inj := range rt.armed {
		if gs, ok := inj.(GeneratorScaler); ok && inj.Window().Contains(minute) {
			scale *= mathx.Clamp(gs.GeneratorScale(minute), 0, 1)
		}
	}
	return scale
}

// Sense runs a sensor reading through every active sensor fault in
// schedule order.
//
// unit: minute=min
func (rt *Runtime) Sense(minute float64, op power.Operating) power.Operating {
	if rt == nil {
		return op
	}
	for i, inj := range rt.armed {
		if s, ok := inj.(Senser); ok && inj.Window().Contains(minute) {
			op = s.Sense(minute, op, &rt.state[i].sense)
		}
	}
	return op
}

// Converter composes every active converter fault: stuck wins over free,
// efficiency factors multiply.
//
// unit: minute=min, effScale=ratio
func (rt *Runtime) Converter(minute float64) (stuck bool, effScale float64) {
	effScale = 1.0
	if rt == nil {
		return false, effScale
	}
	for _, inj := range rt.armed {
		if cm, ok := inj.(ConverterMod); ok && inj.Window().Contains(minute) {
			s, e := cm.Converter(minute)
			stuck = stuck || s
			effScale *= mathx.Clamp(e, 0, 1)
		}
	}
	return stuck, effScale
}

// CoreCap returns the tightest DVFS level cap any active core fault
// imposes on the core; top means unconstrained.
//
// unit: minute=min
func (rt *Runtime) CoreCap(minute float64, core, cores, top int) int {
	cap := top
	if rt == nil {
		return cap
	}
	for _, inj := range rt.armed {
		if cm, ok := inj.(CoreMod); ok && inj.Window().Contains(minute) {
			if c := cm.CoreCap(minute, core, cores, top); c < cap {
				cap = c
			}
		}
	}
	return cap
}

// ConstrainsCores reports whether any core fault is active at the
// minute, letting the engine skip the per-core cap sweep otherwise.
//
// unit: minute=min
func (rt *Runtime) ConstrainsCores(minute float64) bool {
	if rt == nil {
		return false
	}
	for _, inj := range rt.armed {
		if _, ok := inj.(CoreMod); ok && inj.Window().Contains(minute) {
			return true
		}
	}
	return false
}

// SolverErr returns the first active injected solver fault at the
// minute, or nil.
//
// unit: minute=min
func (rt *Runtime) SolverErr(minute float64) error {
	if rt == nil {
		return nil
	}
	for _, inj := range rt.armed {
		if sm, ok := inj.(SolverMod); ok && inj.Window().Contains(minute) {
			if err := sm.SolverErr(minute); err != nil {
				return err
			}
		}
	}
	return nil
}

// hash01 returns a deterministic pseudo-random value in [0,1) from a
// seed and an integer coordinate (a quantized virtual minute), via the
// splitmix64 finalizer. Pure function of its inputs: no state, no call
// -order dependence, bit-identical across runs and platforms.
func hash01(seed int64, n int64) float64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// 53 high bits → [0,1) double, the conventional conversion.
	return float64(z>>11) / (1 << 53)
}
