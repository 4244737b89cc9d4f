package sim

import (
	"solarcore/internal/fault"
	"solarcore/internal/mcore"
	"solarcore/internal/mppt"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
)

// faultCtx is one run's fault-injection state: the armed schedule
// runtime, the MPPT supervision watchdog, the panel's faulted sample at
// the run's current minute, and the report the result carries. A nil
// *faultCtx is the fault-free run; every engine touch point is gated on
// it, so a disarmed schedule takes the exact clean code path.
type faultCtx struct {
	rt  *fault.Runtime
	wd  *fault.Watchdog
	day *SolarDay
	// conv is the live circuit converter (nil for runners without one);
	// baseEff is its clean efficiency, eta the clean conversion factor
	// used for budget math.
	conv    *power.Converter
	baseEff float64 // unit: ratio
	eta     float64 // unit: ratio
	o       obs.Observer

	// curve is the panel at the minute of the last at, under the cloud
	// bursts and the string-disconnect current scale; clean is the
	// fault-free MPP there.
	curve pv.Curve
	clean float64 // unit: W

	report FaultReport
	capped bool // level caps currently installed on the chip
}

// newFaultCtx builds the per-run fault state, or nil when cfg carries no
// armed schedule. When circuit is non-nil its converter becomes the fault
// target; eta is the clean conversion efficiency for budget computation.
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
		eta: eta,
		o:   cfg.Observer,
	}
	if circuit != nil {
		fx.conv = circuit.Conv
		fx.baseEff = circuit.Conv.Efficiency
	}
	return fx
}

// at samples the schedule at minute t (fault.Runtime.At) and the faulted
// panel curve there: the environment under the cloud bursts, the current
// under the string disconnects. It emits no event and installs nothing
// on the chip or converter.
//
// unit: t=min
func (fx *faultCtx) at(t float64) {
	fx.rt.At(t)
	env := fx.day.EnvAt(t)
	env.Irradiance *= fx.rt.IrradianceScale()
	fx.curve = fx.day.Gen.At(env)
	fx.curve.ScaleCurrent(fx.rt.GeneratorScale())
	fx.clean = fx.day.MPPAt(t)
}

// mpp returns the panel-side maximum available power under the sampled
// power-path faults; the precomputed clean profile when none is active.
//
// unit: return=W
func (fx *faultCtx) mpp() float64 {
	if !fx.rt.PowerPathActive() {
		return fx.clean
	}
	return fx.curve.MPP().P
}

// budget returns the post-conversion power budget under the sampled
// power-path faults (converter derates included).
//
// unit: return=W
func (fx *faultCtx) budget() float64 {
	_, effScale := fx.rt.Converter()
	return fx.eta * effScale * fx.mpp()
}

// apply pushes the sampled converter lock/derate and per-core level caps
// into the circuit and chip.
func (fx *faultCtx) apply(chip *mcore.Chip) {
	if fx.conv != nil {
		stuck, effScale := fx.rt.Converter()
		fx.conv.Locked = stuck
		fx.conv.Efficiency = fx.baseEff * effScale
	}
	fx.capped = fx.rt.CapCores(chip, fx.capped)
}

// edgeEvents emits one FaultEvent per injector crossing a window edge
// between the previous sample and minute t, the current one.
//
// unit: t=min
func (fx *faultCtx) edgeEvents(t float64) {
	closed, opened := fx.rt.Edges()
	for _, inj := range closed {
		obs.Fault(fx.o, obs.FaultEvent{Minute: t, Kind: inj.Kind,
			Intensity: inj.I, Phase: obs.FaultEnd})
	}
	for _, inj := range opened {
		fx.report.Injected++
		obs.Fault(fx.o, obs.FaultEvent{Minute: t, Kind: inj.Kind,
			Intensity: inj.I, Phase: obs.FaultBegin})
	}
}

// loadW returns the load power the circuit delivers at the point a
// tracking session on the sampled curve settled: the sensors' reading
// without noise or sensor faults, which the watchdog holds them to. An
// overloaded session settled nowhere and delivers nothing.
//
// unit: return=W
func (fx *faultCtx) loadW(circuit *power.Circuit, track mppt.Result) float64 {
	if track.Overload {
		return 0
	}
	return circuit.OperateAtDemand(&fx.curve, track.RaisedTo).PLoad
}

// brownout is the brownout guard: while the settled rail voltage sags
// below 90 % of nominal under an injected power-path fault, shed DVFS
// load within the same sub-sample instead of riding the sag into a
// crash. Returns the post-shed demand.
//
// unit: t=min, demand=W, return=W
func (fx *faultCtx) brownout(t float64, circuit *power.Circuit, chip *mcore.Chip, alloc sched.Allocator, demand float64) float64 {
	for demand > 0 {
		op := circuit.OperateAtDemand(&fx.curve, demand)
		if op.VLoad >= 0.9*circuit.VNominal {
			break
		}
		if !alloc.Lower(chip) {
			break
		}
		demand = chip.Power()
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

// finish closes the fault windows open at the last sample with end
// events stamped at the day's end minute and folds the watchdog counters
// into the final report.
//
// unit: end=min
func (fx *faultCtx) finish(end float64) FaultReport {
	for _, inj := range fx.rt.Close() {
		obs.Fault(fx.o, obs.FaultEvent{Minute: end, Kind: inj.Kind,
			Intensity: inj.I, Phase: obs.FaultEnd})
	}
	r := fx.report
	r.WatchdogTrips = fx.wd.Trips()
	r.FallbackPeriods = fx.wd.FallbackPeriods()
	r.RecoveryMin = fx.wd.RecoveryMin()
	return r
}
