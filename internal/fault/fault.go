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
// PV string disconnect — each an Injector value naming its Kind, active
// over a [T0,T1) window with an intensity knob where zero is exactly a
// no-op. Everything is deterministic: stochastic kinds (dropout, burst
// flicker, solver) derive their randomness from a splitmix64 hash of
// (seed, virtual minute), so the same schedule replays bit-identically
// regardless of call order, goroutine interleaving or wall-clock — the
// repo-wide seeded-randomness convention (DESIGN.md §9).
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
	"strconv"
	"strings"

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

// Injector is one scheduled disturbance: a kind of DESIGN.md §11's
// table, active over a window at an intensity. The Runtime dispatches on
// Kind; the per-kind effects are documented on the Kind* constants.
type Injector struct {
	Kind string // a Kinds() keyword
	W    Window
	// I is the severity knob in [0,1]; zero is exactly a no-op and the
	// injector is treated as absent.
	I float64 // unit: ratio
	// Seed drives the stochastic kinds (cloud, sensor-drop, solver); 0
	// inherits a per-injector stream from the schedule seed.
	Seed int64
}

// Schedule is a deterministic, seeded composition of injectors — the
// whole fault plan for one simulated day. The zero value (and any
// schedule whose injectors all carry zero intensity) is exactly a no-op.
// A Schedule is read-only to this package, so one schedule may drive
// any number of concurrent runs.
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
		if armed(inj) {
			return true
		}
	}
	return false
}

// armed reports whether one injector can ever perturb the run.
func armed(inj Injector) bool { return inj.I > 0 && !inj.W.Empty() }

// String renders the schedule in ParseSpec's grammar: entries joined by
// ';', each kind:t0=<g>,t1=<g>,i=<g> with a ,seed=<n> suffix when the
// entry carries a seed, floats in their shortest round-trip form. It is
// the one spelling of a parsed schedule: ParseSpec(s.String()) equals s.
// The grammar carries the schedule seed only through entry seeds, so a
// NewSchedule seed with no seeded entry does not survive the round trip.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	entries := make([]string, len(s.Injectors))
	for i, inj := range s.Injectors {
		entries[i] = inj.Kind + ":t0=" + g(inj.W.T0) + ",t1=" + g(inj.W.T1) + ",i=" + g(inj.I)
		if inj.Seed != 0 {
			entries[i] += ",seed=" + strconv.FormatInt(inj.Seed, 10)
		}
	}
	return strings.Join(entries, ";")
}

// Runtime is one run's view of a Schedule: the armed injector set plus
// the per-run state of each. Create a fresh Runtime per run; it is not
// safe for concurrent use, matching the single-goroutine hook discipline
// of the engine.
type Runtime struct {
	armed []armedInjector
}

// armedInjector is one armed injector with its per-run state.
type armedInjector struct {
	Injector
	seed      int64           // the resolved stochastic seed
	frozen    power.Operating // a sensor-stuck fault's first in-window reading
	hasFrozen bool
	on        bool // the window covered the minute of the last Edges call
}

// Runtime builds the per-run state for this schedule. A disarmed
// schedule returns nil, which every Runtime method accepts. It writes
// nothing reachable from s.
func (s *Schedule) Runtime() *Runtime {
	if !s.Armed() {
		return nil
	}
	seed := s.Seed
	if seed == 0 {
		seed = 0xFA017 // "fault": fixed default, mirroring mppt's 0x5eed
	}
	rt := &Runtime{armed: make([]armedInjector, 0, len(s.Injectors))}
	for i, inj := range s.Injectors {
		if !armed(inj) {
			continue
		}
		// Injectors without an explicit seed draw a per-injector stream
		// derived from the schedule seed, so two dropout windows in one
		// schedule draw independent sequences.
		a := armedInjector{Injector: inj, seed: inj.Seed}
		if a.seed == 0 {
			a.seed = seed + int64(i+1)*0x1000193
		}
		rt.armed = append(rt.armed, a)
	}
	return rt
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
	for i := range rt.armed {
		if a := &rt.armed[i]; a.W.Contains(minute) {
			active = append(active, a.Injector)
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
	for i := range rt.armed {
		a := &rt.armed[i]
		on := a.W.Contains(minute)
		if on == a.on {
			continue
		}
		a.on = on
		if on {
			opened = append(opened, a.Injector)
		} else {
			closed = append(closed, a.Injector)
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
	for i := range rt.armed {
		switch a := &rt.armed[i]; a.Kind {
		case KindCloud, KindStringCut, KindConvStuck, KindConvDerate:
			if a.W.Contains(minute) {
				return true
			}
		}
	}
	return false
}

// IrradianceScale composes every active cloud burst at the minute: the
// multiplicative factor in [0,1] applied to the plane-of-array
// irradiance.
//
// unit: minute=min, return=ratio
func (rt *Runtime) IrradianceScale(minute float64) float64 {
	scale := 1.0
	if rt == nil {
		return scale
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.Kind == KindCloud && a.W.Contains(minute) {
			scale *= cloudScale(a.Injector, a.seed, minute)
		}
	}
	return scale
}

// GeneratorScale composes every active string disconnect: the
// multiplicative factor in [0,1] applied to the generator output
// current.
//
// unit: minute=min, return=ratio
func (rt *Runtime) GeneratorScale(minute float64) float64 {
	scale := 1.0
	if rt == nil {
		return scale
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.Kind == KindStringCut && a.W.Contains(minute) {
			scale *= mathx.Clamp(1-a.I, 0, 1)
		}
	}
	return scale
}

// Sense runs a sensor reading at the load rail through every active
// sensor fault in schedule order.
//
// unit: minute=min
func (rt *Runtime) Sense(minute float64, op power.Operating) power.Operating {
	if rt == nil {
		return op
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.W.Contains(minute) {
			op = sense(a, minute, op)
		}
	}
	return op
}

// Converter composes every active converter fault: whether the transfer
// ratio is stuck (stuck wins over free) and the multiplicative
// efficiency factor in [0,1] (factors multiply).
//
// unit: minute=min, effScale=ratio
func (rt *Runtime) Converter(minute float64) (stuck bool, effScale float64) {
	effScale = 1.0
	if rt == nil {
		return false, effScale
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.W.Contains(minute) {
			switch a.Kind {
			case KindConvStuck:
				stuck = true
			case KindConvDerate:
				effScale *= mathx.Clamp(1-a.I, 0, 1)
			}
		}
	}
	return stuck, effScale
}

// CoreCap returns the tightest DVFS level cap any active core fault
// imposes on the core: top (= levels-1) means unconstrained, mcore.Gated
// means the core is failed and forced off.
//
// unit: minute=min
func (rt *Runtime) CoreCap(minute float64, core, cores, top int) int {
	cap := top
	if rt == nil {
		return cap
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.W.Contains(minute) {
			if c := coreCap(a.Injector, core, cores, top); c < cap {
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
	for i := range rt.armed {
		if a := &rt.armed[i]; (a.Kind == KindCoreFail || a.Kind == KindCoreThrottle) && a.W.Contains(minute) {
			return true
		}
	}
	return false
}

// SolverErr returns the typed error (errors.Is ErrSolverFault) of the
// first active solver fault that fires at the minute, or nil.
//
// unit: minute=min
func (rt *Runtime) SolverErr(minute float64) error {
	if rt == nil {
		return nil
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.Kind == KindSolver && a.W.Contains(minute) && fires(a.Injector, a.seed, minute) {
			return SolverError(minute)
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
