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
// The engine (internal/sim) samples a per-run Runtime once per instant
// with Runtime.At at every tracking period and sub-sample, and every
// query reads that sample; when no injector carries a positive intensity
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

// Runtime is one run's view of a Schedule: the armed injector set, the
// per-run state of each, and the schedule's sample at one instant. At
// moves the runtime to a minute; every other query reads that sample.
// Create a fresh Runtime per run; it is not safe for concurrent use,
// matching the single-goroutine hook discipline of the engine.
type Runtime struct {
	armed []armedInjector
	now   sample // taken by the last At
}

// sample is the schedule at one instant, as Runtime.At derives it.
type sample struct {
	minute    float64 // unit: min
	irr, gen  float64 // irradiance and generator-current scales, unit: ratio
	eff       float64 // converter efficiency scale, unit: ratio
	stuck     bool    // a converter fault jams the transfer ratio
	powerPath bool    // an irradiance, generator or converter fault is active
	cores     bool    // a core fault is active
	solver    bool    // a solver fault fires
}

// noFault is the sample of an instant no fault touches: what a nil
// Runtime, or one not yet moved by At, reports.
var noFault = sample{irr: 1, gen: 1, eff: 1}

// sampled returns the sample of the last At.
func (rt *Runtime) sampled() sample {
	if rt == nil {
		return noFault
	}
	return rt.now
}

// armedInjector is one armed injector with its per-run state.
type armedInjector struct {
	Injector
	seed      int64           // the resolved stochastic seed
	frozen    power.Operating // a sensor-stuck fault's first in-window reading
	hasFrozen bool
	live      bool    // the window covers the minute of the last At
	on        bool    // the window covered the minute of the last Edges call
	bias      float64 // a sensor-bias fault's current scale at the last At, unit: ratio
	drop      bool    // a sensor-drop fault fires at the last At
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
	rt := &Runtime{armed: make([]armedInjector, 0, len(s.Injectors)), now: noFault}
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

// At samples the schedule at a simulation minute: which windows cover
// it, the composed power-path scales, the core- and solver-fault flags
// and each sensor fault's state. Factors compose multiplicatively in
// schedule order. It tests each armed window once; a nil Runtime
// ignores the call.
//
// unit: minute=min
func (rt *Runtime) At(minute float64) {
	if rt == nil {
		return
	}
	now := noFault
	now.minute = minute
	for i := range rt.armed {
		a := &rt.armed[i]
		if a.live = a.W.Contains(minute); !a.live {
			continue
		}
		switch a.Kind {
		case KindCloud:
			now.irr *= cloudScale(a.Injector, a.seed, minute)
		case KindStringCut:
			now.gen *= mathx.Clamp(1-a.I, 0, 1)
		case KindConvStuck:
			now.stuck = true
		case KindConvDerate:
			now.eff *= mathx.Clamp(1-a.I, 0, 1)
		case KindCoreFail, KindCoreThrottle:
			now.cores = true
		case KindSolver:
			now.solver = now.solver || fires(a.Injector, a.seed, minute)
		case KindSensorBias:
			a.bias = 1 + a.I*a.W.frac(minute)
		case KindSensorDrop:
			a.drop = fires(a.Injector, a.seed, minute)
		}
		switch a.Kind {
		case KindCloud, KindStringCut, KindConvStuck, KindConvDerate:
			now.powerPath = true
		}
	}
	rt.now = now
}

// Edges reports the window edges crossed between the previous call and
// the last At: the injectors that stopped and started covering the
// sampled minute, each in schedule order. The first call compares
// against an all-inactive set. The engine and the cluster loop call it
// at every sample to emit fault begin/end events and count opened
// windows.
func (rt *Runtime) Edges() (closed, opened []Injector) {
	if rt == nil {
		return nil, nil
	}
	for i := range rt.armed {
		a := &rt.armed[i]
		if a.live == a.on {
			continue
		}
		a.on = a.live
		if a.on {
			opened = append(opened, a.Injector)
		} else {
			closed = append(closed, a.Injector)
		}
	}
	return closed, opened
}

// Close ends the run: it returns the injectors whose windows were open
// at the last Edges call, in schedule order, and marks them closed.
func (rt *Runtime) Close() []Injector {
	if rt == nil {
		return nil
	}
	var open []Injector
	for i := range rt.armed {
		if a := &rt.armed[i]; a.on {
			a.on, a.live = false, false
			open = append(open, a.Injector)
		}
	}
	return open
}

// CapCores installs on every core of chip the tightest level cap of the
// sampled core faults — top (= levels-1) unconstrained, mcore.Gated
// failed — and reports whether caps are now installed. With no core
// fault active it lifts the caps when capped says a previous call
// installed them, and leaves the chip alone otherwise. A nil Runtime
// constrains nothing, so calling CapCores on nil with capped set lifts
// every cap: the end-of-run restore.
func (rt *Runtime) CapCores(chip *mcore.Chip, capped bool) bool {
	constrained := rt.sampled().cores
	if !constrained && !capped {
		return false
	}
	cores, top := chip.NumCores(), chip.NumLevels()-1
	for core := 0; core < cores; core++ {
		cap := top
		for i := 0; constrained && i < len(rt.armed); i++ {
			if a := &rt.armed[i]; a.live {
				cap = min(cap, coreCap(a.Injector, core, cores, top))
			}
		}
		_ = chip.SetLevelCap(core, cap) // coreCap stays within [Gated, top]
	}
	return constrained
}

// PowerPathActive reports whether any injector perturbs the power path
// (irradiance, generator or converter) at the sampled minute. When
// false, the engine may use its precomputed clean MPP profile unchanged.
func (rt *Runtime) PowerPathActive() bool { return rt.sampled().powerPath }

// IrradianceScale is the composed factor in [0,1] the sampled cloud
// bursts apply to the plane-of-array irradiance.
//
// unit: return=ratio
func (rt *Runtime) IrradianceScale() float64 { return rt.sampled().irr }

// GeneratorScale is the composed factor in [0,1] the sampled string
// disconnects apply to the generator output current.
//
// unit: return=ratio
func (rt *Runtime) GeneratorScale() float64 { return rt.sampled().gen }

// Converter reports the sampled converter faults: whether the transfer
// ratio is stuck (stuck wins over free) and the composed efficiency
// factor in [0,1].
//
// unit: effScale=ratio
func (rt *Runtime) Converter() (stuck bool, effScale float64) {
	now := rt.sampled()
	return now.stuck, now.eff
}

// Sense runs a sensor reading at the load rail through every sampled
// sensor fault in schedule order.
func (rt *Runtime) Sense(op power.Operating) power.Operating {
	if rt == nil {
		return op
	}
	for i := range rt.armed {
		if a := &rt.armed[i]; a.live {
			op = sense(a, op)
		}
	}
	return op
}

// SolverErr returns the typed error (errors.Is ErrSolverFault) when a
// sampled solver fault fires, or nil.
func (rt *Runtime) SolverErr() error {
	if now := rt.sampled(); now.solver {
		return SolverError(now.minute)
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
