package sim

import (
	"solarcore/internal/fault"
	"solarcore/internal/mcore"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
)

// faultGen wraps the day's PV generator with a mutable output-current
// scale — the electrical effect of a string disconnect (a fraction of the
// parallel strings off the bus: currents scale, voltages hold). The
// engine refreshes scale from the fault runtime at every sample; 1 is
// fully transparent.
type faultGen struct {
	inner pv.Generator
	scale float64 // output-current scale, unit: ratio
}

// Current implements pv.Generator.
//
// unit: v=V, return=A
func (g *faultGen) Current(env pv.Env, v float64) float64 {
	return g.scale * g.inner.Current(env, v)
}

// Power implements pv.Generator.
//
// unit: v=V, return=W
func (g *faultGen) Power(env pv.Env, v float64) float64 {
	return g.scale * g.inner.Power(env, v)
}

// OpenCircuitVoltage implements pv.Generator.
//
// unit: V
func (g *faultGen) OpenCircuitVoltage(env pv.Env) float64 {
	return g.inner.OpenCircuitVoltage(env)
}

// ShortCircuitCurrent implements pv.Generator.
//
// unit: A
func (g *faultGen) ShortCircuitCurrent(env pv.Env) float64 {
	return g.scale * g.inner.ShortCircuitCurrent(env)
}

// MPP implements pv.Generator: voltages hold, current and power scale.
func (g *faultGen) MPP(env pv.Env) pv.MPP {
	m := g.inner.MPP(env)
	return pv.MPP{V: m.V, I: g.scale * m.I, P: g.scale * m.P}
}

// ResistiveOperating implements pv.Generator. Scaling the I-V curve by s
// maps the load line I = V/R onto the unscaled curve's line I = V/(R·s),
// so the intersection voltage is the inner solve at R·s with the current
// scaled back.
//
// unit: r=Ω, v=V, i=A
func (g *faultGen) ResistiveOperating(env pv.Env, r float64) (v, i float64) {
	if g.scale <= 0 {
		return 0, 0 // a fully disconnected array holds no load voltage
	}
	v, i = g.inner.ResistiveOperating(env, r*g.scale)
	return v, g.scale * i
}

// faultCtx is one run's fault-injection state: the armed schedule
// runtime, the MPPT supervision watchdog, the fault-aware generator
// wrapper installed into the circuit, and the report the result carries.
// A nil *faultCtx is the fault-free run; every engine touch point is
// gated on it, so a disarmed schedule takes the exact clean code path.
type faultCtx struct {
	rt  *fault.Runtime
	wd  *fault.Watchdog
	day *SolarDay
	gen *faultGen
	// conv is the live circuit converter (nil for runners without one);
	// baseEff is its clean efficiency, eta the clean conversion factor
	// used for budget math.
	conv    *power.Converter
	baseEff float64 // unit: ratio
	eta     float64 // unit: ratio
	o       obs.Observer

	report FaultReport
	capped bool // level caps currently installed on the chip
}

// newFaultCtx builds the per-run fault state, or nil when cfg carries no
// armed schedule. When circuit is non-nil its generator is replaced with
// the fault-aware wrapper and its converter becomes the fault target;
// eta is the clean conversion efficiency for budget computation.
//
// unit: eta=ratio
func newFaultCtx(cfg *Config, circuit *power.Circuit, eta float64) *faultCtx {
	rt := cfg.Faults.Runtime()
	if !rt.Armed() {
		return nil
	}
	fx := &faultCtx{
		rt:  rt,
		wd:  &fault.Watchdog{},
		day: cfg.Day,
		gen: &faultGen{inner: cfg.Day.Gen, scale: 1},
		eta: eta,
		o:   cfg.Observer,
	}
	if circuit != nil {
		circuit.Gen = fx.gen
		fx.conv = circuit.Conv
		fx.baseEff = circuit.Conv.Efficiency
	}
	return fx
}

// envAt returns the panel environment with active irradiance faults
// applied (cloud transients).
//
// unit: t=min
func (fx *faultCtx) envAt(t float64) pv.Env {
	env := fx.day.EnvAt(t)
	env.Irradiance *= fx.rt.IrradianceScale(t)
	return env
}

// mppAt returns the panel-side maximum available power under the active
// power-path faults; the precomputed clean profile when none is active.
//
// unit: t=min, return=W
func (fx *faultCtx) mppAt(t float64) float64 {
	if !fx.rt.PowerPathActive(t) {
		return fx.day.MPPAt(t)
	}
	fx.gen.scale = fx.rt.GeneratorScale(t)
	return fx.gen.MPP(fx.envAt(t)).P
}

// budgetAt returns the post-conversion power budget under the active
// power-path faults (converter derates included).
//
// unit: t=min, return=W
func (fx *faultCtx) budgetAt(t float64) float64 {
	_, effScale := fx.rt.Converter(t)
	return fx.eta * effScale * fx.mppAt(t)
}

// applyAt pushes the schedule's state at minute t into the substrate:
// generator scale, converter lock/derate, per-core level caps — and
// emits window begin/end events for injectors crossing their edges.
//
// unit: t=min
func (fx *faultCtx) applyAt(t float64, chip *mcore.Chip) {
	fx.edgeEvents(t)
	fx.gen.scale = fx.rt.GeneratorScale(t)
	if fx.conv != nil {
		stuck, effScale := fx.rt.Converter(t)
		fx.conv.Locked = stuck
		fx.conv.Efficiency = fx.baseEff * effScale
	}
	fx.capped = fx.rt.CapCores(t, chip, fx.capped)
}

// edgeEvents emits one FaultEvent per injector crossing a window edge
// since the previous sample.
//
// unit: t=min
func (fx *faultCtx) edgeEvents(t float64) {
	closed, opened := fx.rt.Edges(t)
	for _, inj := range closed {
		obs.Fault(fx.o, obs.FaultEvent{Minute: t, Kind: inj.Kind(),
			Intensity: inj.Intensity(), Phase: obs.FaultEnd})
	}
	for _, inj := range opened {
		fx.report.Injected++
		obs.Fault(fx.o, obs.FaultEvent{Minute: t, Kind: inj.Kind(),
			Intensity: inj.Intensity(), Phase: obs.FaultBegin})
	}
}

// brownout is the brownout guard: while the settled rail voltage sags
// below 90 % of nominal under an injected power-path fault, shed DVFS
// load within the same sub-sample instead of riding the sag into a
// crash. Returns the post-shed demand.
//
// unit: t=min, demand=W, return=W
func (fx *faultCtx) brownout(t float64, circuit *power.Circuit, chip *mcore.Chip, alloc sched.Allocator, demand float64) float64 {
	env := fx.envAt(t)
	for demand > 0 {
		op := circuit.OperateAtDemand(env, demand)
		if op.VLoad >= 0.9*circuit.VNominal {
			break
		}
		if !alloc.Lower(chip, t) {
			break
		}
		demand = chip.Power(t)
		fx.report.BrownoutSheds++
		obs.Alloc(fx.o, obs.AllocEvent{Minute: t, Dir: -1, Reason: obs.AllocBrownout,
			DemandW: demand})
	}
	return demand
}

// observe feeds one tracked period's evidence to the watchdog and emits
// a WatchdogEvent on a state transition. fallbackBudgetW carries the
// de-rated budget the next period would plan against, reported on
// transitions into fallback.
//
// unit: fallbackBudgetW=W
func (fx *faultCtx) observe(st fault.PeriodStats, fallbackBudgetW float64) {
	from := fx.wd.Mode()
	to := fx.wd.Observe(st)
	fx.emitWatchdog(st.Minute, from, to, fallbackBudgetW)
}

// observeFallback accounts one fallback period and emits the transition
// out of fallback when the hold elapses.
//
// unit: t=min
func (fx *faultCtx) observeFallback(t float64) {
	from := fx.wd.Mode()
	to := fx.wd.ObserveFallback(t)
	fx.emitWatchdog(t, from, to, 0)
}

// emitWatchdog reports a supervision state transition, if any.
//
// unit: t=min, fallbackBudgetW=W
func (fx *faultCtx) emitWatchdog(t float64, from, to fault.Mode, fallbackBudgetW float64) {
	if from == to {
		return
	}
	if to != fault.ModeFallback {
		fallbackBudgetW = 0
	}
	obs.Watchdog(fx.o, obs.WatchdogEvent{
		Minute: t, From: from.String(), To: to.String(),
		Reason: watchdogReason(from, to), FallbackBudgetW: fallbackBudgetW,
	})
}

// watchdogReason names the cause of a supervision transition.
func watchdogReason(from, to fault.Mode) string {
	switch {
	case to == fault.ModeSuspect:
		return "unhealthy"
	case to == fault.ModeFallback && from == fault.ModeRecovering:
		return "relapse"
	case to == fault.ModeFallback:
		return "trip"
	case to == fault.ModeRecovering:
		return "hold-elapsed"
	case to == fault.ModeTracking && from == fault.ModeSuspect:
		return "healthy"
	case to == fault.ModeTracking:
		return "recovered"
	}
	return ""
}

// finish closes any still-open fault windows with end events and folds
// the watchdog counters into the final report.
//
// unit: end=min
func (fx *faultCtx) finish(end float64) FaultReport {
	fx.edgeEvents(end) // windows already closed before end emit here
	for _, inj := range fx.rt.Active(end) {
		obs.Fault(fx.o, obs.FaultEvent{Minute: end, Kind: inj.Kind(),
			Intensity: inj.Intensity(), Phase: obs.FaultEnd})
	}
	r := fx.report
	r.WatchdogTrips = fx.wd.Trips()
	r.FallbackPeriods = fx.wd.FallbackPeriods()
	r.RecoveryMin = fx.wd.RecoveryMin()
	return r
}
