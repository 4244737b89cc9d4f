package sim

import (
	"context"
	"fmt"
	"math"

	"solarcore/internal/fault"
	"solarcore/internal/lru"
	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
	"solarcore/internal/mppt"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/thermal"
	"solarcore/internal/workload"
)

// EngineVersion names the engine's output: a change to any result or
// event byte bumps it, and TestEngineGolden pins it to the hash table.
// RunSpec.Canonical carries it, so a store, ring or stream tail keyed on
// a spec hash never replays another engine's bytes as current.
const EngineVersion = 3

// Config describes one day run. Zero-valued fields take the paper's
// defaults: 10-minute tracking periods, 1-minute sub-sampling, one DVFS
// step of power margin, Table 4 chip (the 12 V rail is power.NewCircuit's).
type Config struct {
	Day *SolarDay
	Mix workload.Mix

	Chip           mcore.Config
	TrackPeriodMin float64
	StepMin        float64
	// MarginSteps is the tracker's protective power margin in DVFS steps.
	// 0 means the default (2); pass a negative value for no margin.
	MarginSteps int
	// DeltaK overrides the converter's ratio perturbation step (0 keeps
	// the converter default).
	DeltaK float64
	// ScanPoints enables the controller's global ratio scan at each
	// tracking session (see mppt.Config.ScanPoints) — needed under partial
	// shading, harmless without it.
	ScanPoints int
	// DVFSTransitionUs charges every per-core operating-point change a
	// stall of this many microseconds (VRM ramp + PLL relock). Zero —
	// the default — models the fast on-chip regulators of the paper's
	// reference [13]; tens of microseconds model conventional off-chip
	// VRMs. The stall is debited from committed instructions.
	DVFSTransitionUs float64
	// EventTracking additionally re-triggers a full MPP tracking session
	// mid-period whenever the available power has drifted more than 15 %
	// from its value at the last session — "the processor starts tuning its
	// load when the controller detects a change in PV power supply"
	// (Figure 12) taken to its event-driven conclusion.
	EventTracking bool
	// SensorError injects multiplicative I/V sensor noise into the
	// controller (see mppt.Config.SensorError).
	SensorError float64
	// Faults installs a deterministic fault-injection schedule (package
	// fault): irradiance bursts, sensor faults, converter faults, core
	// failures, string disconnects, solver faults. A nil or disarmed
	// schedule (every intensity zero) leaves the run byte-identical to a
	// fault-free one — the engine takes the exact clean code path.
	Faults *fault.Schedule
	// Thermal enables the per-core RC die-temperature model and throttle
	// governor; nil runs thermally unconstrained (the paper's setting).
	Thermal *thermal.Config
	// KeepSeries retains the per-sub-sample budget/actual trace.
	KeepSeries bool
	// Ctx, when non-nil, cancels the run cooperatively: every runner
	// checks it at least once per tracking period (or sub-sample) and
	// returns the wrapped context error instead of a partial result.
	Ctx context.Context
	// Observer, when non-nil, receives the run's events as it unfolds:
	// run_start/run_end bracketing the day, one track per MPPT tracking
	// session, one alloc per mid-period DVFS move, one tick per
	// sub-sample, and fault/watchdog events on faulted runs (see package
	// obs). The run emits through one obs.Emitter, which it shares with
	// the MPPT controller, so events cost no allocation each. A nil
	// observer costs nothing; the no-op observer's overhead, measured by
	// the root benchmark BenchmarkRunMPPTNopObserver, is about 4 % of a
	// day and 7 allocations.
	Observer obs.Observer
}

// canceled reports a pending cancellation on cfg.Ctx, pre-wrapped for
// returning to the caller.
func (c *Config) canceled() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled: %w", err)
	}
	return nil
}

func (c *Config) fillDefaults() error {
	if c.Day == nil {
		return fmt.Errorf("sim: config needs a SolarDay")
	}
	if len(c.Mix.Programs) == 0 {
		return fmt.Errorf("sim: config needs a workload mix")
	}
	if c.Chip.Cores == 0 {
		c.Chip = mcore.DefaultConfig()
	}
	if c.TrackPeriodMin <= 0 {
		c.TrackPeriodMin = 10
	}
	if c.StepMin <= 0 {
		c.StepMin = 1
	}
	if c.MarginSteps == 0 {
		c.MarginSteps = 2
	}
	if c.MarginSteps < 0 {
		c.MarginSteps = 0
	}
	return nil
}

// dayRun is the skeleton every runner shares: the chip, the result it
// fills, the energy meter and transfer switch, and the few config values
// the shared bookkeeping reads. It holds values, not pointers into the
// Config, so a runner's Config stays on its stack.
type dayRun struct {
	chip  *mcore.Chip
	res   *DayResult
	meter power.EnergyMeter
	ats   power.TransferSwitch
	fx    *faultCtx // nil unless an armed fault schedule is installed
	day   *SolarDay
	o     *obs.Emitter // nil without an observer

	runner     string
	eta        float64 // clean conversion efficiency, unit: ratio
	stepMin    float64 // unit: min
	keepSeries bool
}

// begin defaults cfg, builds the chip with the mix applied and every
// core gated, and writes the result header into res.
func (r *dayRun) begin(cfg *Config, res *DayResult, runner, policy string) error {
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	chip, err := mcore.NewChip(cfg.Chip)
	if err != nil {
		return err
	}
	if err := cfg.Mix.Apply(chip); err != nil {
		return err
	}
	_ = chip.SetAllLevels(mcore.Gated) // fresh chip: Gated is always a valid level
	*res = DayResult{
		Policy:      policy,
		Mix:         cfg.Mix.Name,
		Label:       cfg.Day.Trace.Label(),
		DaytimeMin:  cfg.Day.DaytimeMinutes(),
		MPPEnergyWh: cfg.Day.MPPEnergyWh(),
	}
	*r = dayRun{
		chip: chip, res: res, ats: *power.NewTransferSwitch(power.Utility),
		day: cfg.Day, o: obs.NewEmitter(cfg.Observer), runner: runner,
		stepMin: cfg.StepMin, keepSeries: cfg.KeepSeries,
	}
	return nil
}

// start emits the run_start event.
func (r *dayRun) start() {
	r.o.RunStart(obs.RunStartEvent{
		Runner: r.runner, Policy: r.res.Policy, Mix: r.res.Mix,
		Label: r.res.Label, Cores: r.chip.NumCores(),
		StartMin: r.day.StartMinute(), EndMin: r.day.EndMinute(),
	})
}

// at moves the run to minute t: it samples the chip's workload there
// (mcore.Chip.At) and, under an armed fault schedule, samples the
// schedule and the faulted panel curve, emits the window edges crossed
// and pushes the fault state into the chip and circuit. It is the one
// place a tracking or fixed run changes its minute; every chip read and
// move, and every fault query, until the next at uses this sample.
// RunBattery moves its two loops itself: the harvest loop samples the
// schedule and takes its edges, the draw loop samples the chip and the
// core caps.
//
// unit: t=min
func (r *dayRun) at(t float64) {
	r.chip.At(t)
	if fx := r.fx; fx != nil {
		fx.at(t)
		fx.edgeEvents(t)
		fx.apply(r.chip)
	}
}

// curveAt returns the panel curve at minute t, the run's current sample:
// under an armed fault schedule the faulted curve fx.at sampled, else the
// day's generator sampled here, once per tracking session that reads it.
//
// unit: t=min
func (r *dayRun) curveAt(t float64) pv.Curve {
	if r.fx != nil {
		return r.fx.curve
	}
	return r.day.Gen.At(r.day.EnvAt(t))
}

// budgetAt returns the post-conversion power available at minute t, the
// run's current sample, routed through the fault runtime when a schedule
// is armed.
//
// unit: t=min, return=W
func (r *dayRun) budgetAt(t float64) float64 {
	if r.fx != nil {
		return r.fx.budget()
	}
	return r.eta * r.day.MPPAt(t)
}

// book accounts one sub-sample of dt minutes at minute t, where the chip
// draws demandW and commits gips: the transfer switch and meter follow
// the supply, solar minutes and instructions accrue, and the tick
// reaches the observer and the series.
//
// unit: t=min, dt=min, budgetW=W, demandW=W, gips=GIPS
func (r *dayRun) book(t, dt, budgetW, demandW, gips float64, onSolar bool) {
	src := power.Utility
	if onSolar {
		src = power.Solar
	}
	r.ats.Select(src)
	r.meter.Add(src, demandW, dt)
	ginstr := gips * dt * 60
	if onSolar {
		r.res.SolarMin += dt
		r.res.GInstrSolar += ginstr
	}
	r.res.GInstrTotal += ginstr
	r.o.Tick(obs.TickEvent{Minute: t, BudgetW: budgetW, DemandW: demandW, OnSolar: onSolar})
	if r.keepSeries {
		actual := 0.0
		if onSolar {
			actual = demandW
		}
		r.res.Series = append(r.res.Series, TracePoint{Minute: t, BudgetW: budgetW, ActualW: actual, OnSolar: onSolar})
	}
}

// fixedPeriod runs [t0, t1) the Fixed-Power way on the live chip: the
// chip is planned once against budgetW (greedy LP, Table 6) and sampled
// at every sub-sample, which fixedTick books. The caller has moved the
// run to t0, so the first sub-sample reads that sample. RunFixed's fault
// path and RunMPPT's watchdog fallback periods run here, because their
// fault edges interleave with the ticks; a clean RunFixed day replays a
// plan instead.
//
// unit: t0=min, t1=min, budgetW=W
func (r *dayRun) fixedPeriod(t0, t1, budgetW float64) {
	sched.PlanBudget(r.chip, budgetW)
	for t := t0; t < t1-1e-9; t += r.stepMin {
		if t > t0 {
			r.at(t)
		}
		r.fixedTick(t, math.Min(r.stepMin, t1-t), budgetW, r.chip.Power(), r.chip.Throughput())
	}
}

// fixedTick books one Fixed-Power sub-sample of a chip that draws
// demandW and commits gips: it runs on solar only while the available
// power covers the budget and the draw — the power-transfer threshold
// semantics of Section 6.2.
//
// unit: t=min, dt=min, budgetW=W, demandW=W, gips=GIPS
func (r *dayRun) fixedTick(t, dt, budgetW, demandW, gips float64) {
	avail := r.budgetAt(t)
	r.book(t, dt, avail, demandW, gips, avail >= budgetW && demandW > 0 && demandW <= avail)
}

// end writes the fault report and the metered energy, then emits the
// run_end event with the day's totals.
func (r *dayRun) end() {
	res := r.res
	if r.fx != nil {
		// The end minute is not sampled: only a window some sample saw
		// open counts as injected and gets an end event.
		res.Faults = r.fx.finish(r.day.EndMinute())
	}
	res.SolarWh = r.meter.EnergyWh(power.Solar)
	res.UtilityWh = r.meter.EnergyWh(power.Utility)
	r.o.RunEnd(obs.RunEndEvent{
		Runner:      r.runner,
		SolarWh:     res.SolarWh,
		UtilityWh:   res.UtilityWh,
		SolarMin:    res.SolarMin,
		DaytimeMin:  res.DaytimeMin,
		Overloads:   res.Overloads,
		Transitions: res.Transitions,
		ATSSwitches: res.ATSSwitches,
		// Zero on fault-free runs, so the encoded event is unchanged.
		FaultsInjected:  res.Faults.Injected,
		BrownoutSheds:   res.Faults.BrownoutSheds,
		WatchdogTrips:   res.Faults.WatchdogTrips,
		FallbackPeriods: res.Faults.FallbackPeriods,
		SolverFaults:    res.Faults.SolverFaults,
		RecoveryMin:     res.Faults.RecoveryMin,
	})
}

// RunMPPT simulates one day under SolarCore power management with the
// given load-adaptation policy (MPPT&IC, MPPT&RR or MPPT&Opt).
func RunMPPT(cfg Config, alloc sched.Allocator) (*DayResult, error) {
	var r dayRun
	if err := r.begin(&cfg, new(DayResult), "MPPT", alloc.Name()); err != nil {
		return nil, err
	}
	chip, res := r.chip, r.res
	circuit := power.NewCircuit(cfg.Day.Gen)
	if cfg.DeltaK > 0 {
		circuit.Conv.DeltaK = cfg.DeltaK
	}
	// fx is nil unless an armed fault schedule is installed; every fault
	// touch point below is gated on it so the clean path is untouched.
	r.eta = circuit.Conv.Efficiency
	r.fx = newFaultCtx(&cfg, circuit, r.eta, r.o)
	fx := r.fx
	mcfg := mppt.Config{
		MarginSteps: cfg.MarginSteps,
		SensorError: cfg.SensorError,
		ScanPoints:  cfg.ScanPoints,
	}
	if r.o != nil {
		// The controller emits through the run's envelope.
		mcfg.Observer = r.o
	}
	if fx != nil {
		mcfg.SenseFault = fx.rt.Sense
	}
	ctrl, err := mppt.New(circuit, chip, alloc, mcfg)
	if err != nil {
		return nil, err
	}
	alloc.Reset()

	var thermalModel *thermal.Model
	if cfg.Thermal != nil {
		_, amb := cfg.Day.Trace.At(cfg.Day.StartMinute())
		thermalModel, err = thermal.NewModel(chip, *cfg.Thermal, amb)
		if err != nil {
			return nil, err
		}
	}

	r.start()
	top := chip.NumLevels() - 1
	// The protective power margin is sized from the observed load ripple
	// (Section 6.1: high-EPI workloads generate large power ripples, so
	// they must keep more headroom and pay a larger tracking error). An
	// EWMA of the relative step-to-step demand change drives the hysteresis
	// band for mid-period load re-raising.
	ripple := 0.02
	prevDemand := 0.0
	raiseBand := func() float64 {
		return mathx.Clamp(5*ripple, 0.12, 0.40)
	}

	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	for t0 := start; t0 < end; t0 += cfg.TrackPeriodMin {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		t1 := math.Min(t0+cfg.TrackPeriodMin, end)
		r.at(t0)
		if fx != nil && fx.wd.Mode() == fault.ModeFallback {
			// Degraded operation: the watchdog abandoned tracking, so
			// this period runs Fixed-Power against the de-rated budget
			// (Table 3 de-rating of the actually-available power) and
			// the controller is left alone until the hold elapses. The
			// thermal governor is not advanced: fallback runs well
			// below the clean budget, so throttling cannot engage.
			r.fixedPeriod(t0, t1, fault.Derate*fx.budget())
			fx.observeFallback(t0)
			prevDemand = 0
			continue
		}
		var track mppt.Result
		var solverErr error
		var minLoadW float64 // unit: W
		var loadW float64    // the settled point's delivered load power, unit: W
		if fx != nil {
			solverErr = fx.rt.SolverErr()
			// The watchdog judges the period against the period-start
			// sample; the sub-samples below move the chip on.
			minLoadW = chip.MinPower()
		}
		if solverErr != nil {
			// A typed solver fault (errors.Is fault.ErrSolverFault) is a
			// degradation trigger, not an abort: the period runs on the
			// utility like an overload and the watchdog counts it toward
			// tripping into fallback.
			fx.report.SolverFaults++
			track = mppt.Result{Overload: true}
		} else {
			track = ctrl.TrackCurve(r.curveAt(t0), t0)
			if fx != nil {
				loadW = fx.loadW(circuit, track)
			}
		}
		onSolar := track.Solar()
		trackBudget := r.budgetAt(t0)
		prevDemand = 0 // tracking moved the levels; restart ripple pairing
		if !onSolar {
			res.Overloads++
			// Traditional CMP on the utility: run flat out (Section 6.3).
			_ = chip.SetAllLevels(top) // top comes from the chip itself
		}
		// The period's tracking error is the mean over its solar
		// sub-samples, summed in order and divided once. The first
		// sub-sample reads the period-start sample tracking used.
		errSum, errN := 0.0, 0
		for t := t0; t < t1-1e-9; t += cfg.StepMin {
			dt := math.Min(cfg.StepMin, t1-t)
			if t > t0 {
				r.at(t)
			}
			budget := r.budgetAt(t)
			if cfg.EventTracking && trackBudget > 0 &&
				math.Abs(budget-trackBudget) > 0.15*trackBudget {
				track = ctrl.TrackCurve(r.curveAt(t), t)
				if fx != nil {
					loadW = fx.loadW(circuit, track)
				}
				onSolar = track.Solar()
				trackBudget = budget
				prevDemand = 0
				if !onSolar {
					res.Overloads++
					_ = chip.SetAllLevels(top) // top comes from the chip itself
				}
			}
			demand := chip.Power()
			// Ripple is the phase-induced demand drift at unchanged DVFS
			// levels: compare against the post-adaptation demand of the
			// previous sub-sample.
			if prevDemand > 0 && demand > 0 {
				r := math.Abs(demand-prevDemand) / prevDemand
				ripple = 0.9*ripple + 0.1*r
			}
			if onSolar {
				// Mid-period load adaptation: the controller "starts tuning
				// its load when it detects a change in PV power supply"
				// (Figure 12). A supply drop or phase swing above the
				// budget sheds load instead of dropping to the utility; a
				// recovering supply re-raises the load once the gap exceeds
				// the hysteresis band, preserving the protective margin.
				for demand > budget {
					if !alloc.Lower(chip) {
						break
					}
					demand = chip.Power()
					r.o.Alloc(obs.AllocEvent{Minute: t, Dir: -1, Reason: obs.AllocShed,
						DemandW: demand, BudgetW: budget})
				}
				for budget-demand > raiseBand()*budget {
					if !alloc.Raise(chip) {
						break
					}
					if next := chip.Power(); next <= budget {
						demand = next
						r.o.Alloc(obs.AllocEvent{Minute: t, Dir: +1, Reason: obs.AllocRaise,
							DemandW: demand, BudgetW: budget})
					} else {
						alloc.Lower(chip)
						demand = chip.Power()
						r.o.Alloc(obs.AllocEvent{Minute: t, Dir: -1, Reason: obs.AllocRevert,
							DemandW: demand, BudgetW: budget})
						break
					}
				}
			}
			if fx != nil && onSolar && demand > 0 && fx.rt.PowerPathActive() {
				// Brownout guard: an injected power-path fault can leave
				// the settled rail sagging even under the budget; shed
				// within this sub-sample rather than ride the sag.
				demand = fx.brownout(t, circuit, chip, alloc, demand)
			}
			if thermalModel != nil {
				// Sub-step at the thermal time constant so the governor can
				// intervene during the transient, as a real ms-scale
				// governor would.
				_, amb := cfg.Day.Trace.At(t)
				inner := cfg.Thermal.TauMin / 10
				if inner <= 0 || inner > dt {
					inner = dt
				}
				for done := 0.0; done < dt-1e-12; done += inner {
					step := math.Min(inner, dt-done)
					thermalModel.Advance(step, amb)
				}
				demand = chip.Power() // throttling may have shed load
			}
			prevDemand = demand
			solarNow := onSolar && demand > 0 && demand <= budget
			if solarNow && budget > 0 {
				errSum += math.Abs(budget-demand) / budget
				errN++
			}
			r.book(t, dt, budget, demand, chip.Throughput(), solarNow)
		}
		if onSolar && errN > 0 {
			res.PeriodErrs = append(res.PeriodErrs, errSum/float64(errN))
		}
		if fx != nil {
			// Feed the period's health evidence to the watchdog; a trip
			// makes the next period run in fallback.
			fx.observe(fault.PeriodStats{
				Minute: t0, Overload: track.Overload,
				Steps: track.Steps, MaxSteps: ctrl.Cfg.MaxSteps,
				SensedW: track.Op.PLoad, LoadW: loadW,
				BudgetW: trackBudget, MinLoadW: minLoadW,
				SolverFault: solverErr != nil,
			}, fault.Derate*trackBudget)
		}
	}
	res.Transitions = chip.Transitions()
	res.ATSSwitches = r.ats.Switches()
	if thermalModel != nil {
		res.ThrottleEvents = thermalModel.ThrottleEvents()
		res.PeakTempC = thermalModel.Peak()
	}
	if cfg.DVFSTransitionUs > 0 {
		// Debit the cumulative transition stall from committed work at the
		// day's mean throughput. Individual stalls are far shorter than a
		// sub-sample, so the aggregate debit is exact to first order.
		stallSec := float64(res.Transitions) * cfg.DVFSTransitionUs * 1e-6
		daySec := res.DaytimeMin * 60
		if daySec > 0 {
			frac := stallSec / daySec
			if frac > 1 {
				frac = 1
			}
			res.GInstrSolar *= 1 - frac
			res.GInstrTotal *= 1 - frac
		}
	}
	r.end()
	return res, nil
}

// RunFixed simulates one day under the non-tracking Fixed-Power baseline:
// the chip is planned for a constant budget (greedy LP, Table 6) and runs
// on solar only while the panel's deliverable power covers that budget —
// the power-transfer threshold semantics of Section 6.2.
//
// A clean day's chip does not depend on the weather, so it replays a
// plan: the planned chip's draw and throughput at every sub-sample,
// built for a mix, chip, budget, step, period and day window, kept in a
// small process-wide memo and read against each day's solar power. A day of more than
// planMaxSamples sub-samples, a mix or chip that differs from the plan's
// under the same key, and an armed fault schedule sample the chip live.
// Both paths book every sub-sample through fixedTick, so they give the
// same bytes.
func RunFixed(cfg Config, budgetW float64) (*DayResult, error) {
	return runFixed(cfg, budgetW, fixedPlans)
}

// runFixed is RunFixed with its plan memo; a nil plans runs live.
//
// unit: budgetW=W
func runFixed(cfg Config, budgetW float64, plans *lru.Cache[planKey, *fixedPlan]) (*DayResult, error) {
	var r dayRun
	if err := r.begin(&cfg, new(DayResult), "Fixed-Power", fmt.Sprintf("Fixed-Power(%gW)", budgetW)); err != nil {
		return nil, err
	}
	if budgetW <= 0 {
		return nil, fmt.Errorf("sim: fixed budget must be positive, got %v", budgetW)
	}
	// The fixed baseline has no tracker, so only power-path faults and
	// core constraints apply.
	r.eta = power.NewConverter().Efficiency
	r.fx = newFaultCtx(&cfg, nil, r.eta, r.o)
	var plan []planSample
	if r.fx == nil && plans != nil {
		if p := planFor(plans, &cfg, budgetW); p != nil {
			plan = p.samples
		}
	}
	r.start()
	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	i := 0
	for t0 := start; t0 < end; t0 += cfg.TrackPeriodMin {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		t1 := math.Min(t0+cfg.TrackPeriodMin, end)
		if plan == nil {
			r.at(t0)
			r.fixedPeriod(t0, t1, budgetW)
			continue
		}
		for t := t0; t < t1-1e-9; t += cfg.StepMin {
			s := plan[i]
			i++
			r.fixedTick(t, math.Min(cfg.StepMin, t1-t), budgetW, s.demandW, s.gips)
		}
	}
	r.end()
	return r.res, nil
}

// RunBattery simulates the battery-equipped standalone baseline of
// Section 5: a dedicated MPPT charge controller harvests the panel's
// maximum power all day, the de-rated energy is buffered, and the chip
// consumes it at full speed under a stable supply until it runs out.
func RunBattery(cfg Config, eff float64) (*DayResult, error) {
	var r dayRun
	if err := r.begin(&cfg, new(DayResult), "Battery", fmt.Sprintf("Battery(%.0f%%)", eff*100)); err != nil {
		return nil, err
	}
	if eff <= 0 || eff > 1 {
		return nil, fmt.Errorf("sim: battery efficiency %v outside (0,1]", eff)
	}
	chip, res := r.chip, r.res
	_ = chip.SetAllLevels(chip.NumLevels() - 1) // level is in range by construction
	r.start()
	bat := power.NewBatterySystem(eff)
	// The battery's dedicated charge controller still loses harvest to
	// power-path faults (clouds, string cuts); core faults constrain the
	// chip. Sensor, converter and solver faults have no battery analogue.
	r.fx = newFaultCtx(&cfg, nil, 1, r.o)

	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	// The battery is optimally charged by its own tracker (Section 5): the
	// whole day's MPP energy is banked up front. The harvest loop is the
	// one that samples a fault schedule at every minute of the day, so it
	// takes the window edges: a window that opens after the bank empties
	// still cuts the harvest and is counted, and every fault event
	// precedes the draw loop's ticks.
	fx := r.fx
	for t := start; t < end-1e-9; t += cfg.StepMin {
		dt := math.Min(cfg.StepMin, end-t)
		mpp := cfg.Day.MPPAt(t)
		if fx != nil {
			fx.at(t)
			fx.edgeEvents(t)
			mpp = fx.mpp()
		}
		bat.Harvest(mpp, dt)
	}
	for t := start; t < end-1e-9; t += cfg.StepMin {
		if err := cfg.canceled(); err != nil {
			return nil, err
		}
		dt := math.Min(cfg.StepMin, end-t)
		chip.At(t)
		if fx != nil {
			// Only the core caps act on the draw; the edges are taken.
			fx.rt.At(t)
			fx.apply(chip)
		}
		demand := chip.Power()
		got := bat.Draw(demand, dt)
		// The battery supplies on demand while charged, so the available
		// power equals demand until the bank empties.
		r.o.Tick(obs.TickEvent{Minute: t, BudgetW: demand, DemandW: demand, OnSolar: got > 0})
		if got <= 0 {
			break
		}
		res.SolarMin += got
		r.meter.Add(power.Solar, demand, got)
		ginstr := chip.Throughput() * got * 60
		res.GInstrSolar += ginstr
		res.GInstrTotal += ginstr
	}
	r.end()
	return res, nil
}
