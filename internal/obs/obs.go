// Package obs is the simulation stack's observability layer: a
// one-method Observer the discrete-time engine (internal/sim) and the
// MPPT controller (internal/mppt) feed as a run unfolds, a metrics
// registry of counters/gauges/histograms with snapshot export and
// cross-fleet merging, and a JSONL event sink with a versioned,
// round-trip-tested schema.
//
// Every event travels as the JSONL envelope Event, which the sink
// encodes as-is: Observer.On receives it, and an Emitter's typed methods
// (RunStart, Track, Alloc, Tick, RunEnd, Fault, Watchdog) build it in
// one payload slot per kind that the run reuses. A nil Observer gets a
// nil Emitter, whose methods do nothing, so the disabled path is free: a
// nil Observer in sim.Config builds no event at all. The no-op observer
// (Nop) costs one dynamic call per event and one emitter per run: on a
// 2-CPU Xeon host (go1.24) five interleaved runs of the root
// BenchmarkRunMPPTNopObserver read 0.38–0.45 ms a day with 99
// allocations, against 0.36–0.42 ms and 92 for BenchmarkRunMPPT, a
// median of 4 % more (1,403 allocations and 16 % more while each event
// boxed its payload).
//
// Event semantics follow the paper's control structure: one RunStartEvent
// and one RunEndEvent bracket a day; each 10-minute tracking period opens
// with a TrackEvent from the controller (the Figure 9 perturb-and-observe
// session: final transfer ratio k, tuning steps consumed, settled load,
// per-core DVFS levels); AllocEvents record individual per-core DVFS
// moves outside the tracking session (mid-period load adaptation and the
// protective power margin of Section 4.3); TickEvents sample the tracked
// vs. available power at every simulation sub-sample — the two curves of
// Figures 13-14.
package obs

// Observer receives events. Implementations must be safe for the call
// pattern of one run: events arrive sequentially from a single
// goroutine, but distinct runs may drive distinct observers
// concurrently. A run delivers one TypeRunStart event before any other
// and one TypeRunEnd event after every other; the run_end is not
// delivered when the run aborts with an error (including cancellation).
// On must not retain the payload pointers, or the Levels slice of a
// TrackEvent, beyond the call unless it copies them.
type Observer interface {
	// On receives one event; exactly one payload pointer is set, the
	// one Event.Type names. V is left for encoders to stamp.
	On(Event)
}

// Emitter sends one run's events to an Observer through one envelope
// it reuses. Each method copies its payload into the emitter's slot for
// that kind and hands the observer a pointer to the slot, so a run
// allocates its payloads once, not once per event; On's contract (keep
// no payload pointer beyond the call) lets the next event of the kind
// overwrite the slot. Every method is a no-op on a nil *Emitter, so a
// nil Observer builds no event at all.
type Emitter struct {
	o        Observer
	runStart RunStartEvent
	track    TrackEvent
	alloc    AllocEvent
	tick     TickEvent
	runEnd   RunEndEvent
	fault    FaultEvent
	watchdog WatchdogEvent
}

// NewEmitter returns the emitter for one run's events to o: nil for a
// nil o, o itself when it already is an *Emitter, else a fresh one. The
// engine hands its emitter to the MPPT controller as its Observer, so
// both emit through one envelope per run.
func NewEmitter(o Observer) *Emitter {
	if o == nil {
		return nil
	}
	if e, ok := o.(*Emitter); ok {
		return e
	}
	return &Emitter{o: o}
}

// On implements Observer: it passes ev to the emitter's observer.
func (e *Emitter) On(ev Event) { e.o.On(ev) }

// RunStart reports the start of a run.
func (e *Emitter) RunStart(ev RunStartEvent) {
	if e != nil {
		e.runStart = ev
		e.o.On(Event{Type: TypeRunStart, RunStart: &e.runStart})
	}
}

// Track reports one MPPT tracking session (Figure 9).
func (e *Emitter) Track(ev TrackEvent) {
	if e != nil {
		e.track = ev
		e.o.On(Event{Type: TypeTrack, Track: &e.track})
	}
}

// Alloc reports one per-core DVFS move outside a tracking session.
func (e *Emitter) Alloc(ev AllocEvent) {
	if e != nil {
		e.alloc = ev
		e.o.On(Event{Type: TypeAlloc, Alloc: &e.alloc})
	}
}

// Tick reports one simulation sub-sample.
func (e *Emitter) Tick(ev TickEvent) {
	if e != nil {
		e.tick = ev
		e.o.On(Event{Type: TypeTick, Tick: &e.tick})
	}
}

// RunEnd reports the end of a completed run.
func (e *Emitter) RunEnd(ev RunEndEvent) {
	if e != nil {
		e.runEnd = ev
		e.o.On(Event{Type: TypeRunEnd, RunEnd: &e.runEnd})
	}
}

// Fault reports one fault window edge.
func (e *Emitter) Fault(ev FaultEvent) {
	if e != nil {
		e.fault = ev
		e.o.On(Event{Type: TypeFault, Fault: &e.fault})
	}
}

// Watchdog reports one supervision state transition.
func (e *Emitter) Watchdog(ev WatchdogEvent) {
	if e != nil {
		e.watchdog = ev
		e.o.On(Event{Type: TypeWatchdog, Watchdog: &e.watchdog})
	}
}

// RunStartEvent announces a starting day run.
type RunStartEvent struct {
	// Runner names the engine entry point: "MPPT", "Fixed-Power",
	// "Battery" or "BatteryBank".
	Runner string `json:"runner"`
	// Policy is the Table 6 policy name (MPPT runs) or baseline label.
	Policy string `json:"policy"`
	// Mix is the Table 5 workload mix name.
	Mix string `json:"mix"`
	// Label identifies the weather trace, e.g. "Jul@AZ".
	Label string `json:"label"`
	// Cores is the simulated core count.
	Cores int `json:"cores"`
	// StartMin and EndMin bound the simulated daytime span in minutes
	// since midnight.
	StartMin float64 `json:"start_min"`
	EndMin   float64 `json:"end_min"`
}

// TrackEvent reports one MPPT tracking session — the three-step
// perturb-and-observe loop of Figure 9 — as the controller settled it.
type TrackEvent struct {
	// Minute is the session trigger time in minutes since midnight.
	Minute float64 `json:"minute"`
	// K is the converter transfer ratio the session settled on
	// (dimensionless).
	K float64 `json:"k"`
	// Steps is the number of tuning actions (k perturbations and DVFS
	// moves) the session consumed.
	Steps int `json:"steps"`
	// Overload means the panel could not support even the minimum load;
	// the period runs on the utility.
	Overload bool `json:"overload"`
	// LoadW is the chip demand the session raised the load to (W).
	LoadW float64 `json:"load_w"`
	// SensedW is the load power as the controller's I/V sensors report
	// it (W) — differs from LoadW under injected sensor error.
	SensedW float64 `json:"sensed_w"`
	// Levels holds the per-core DVFS levels after the session
	// (mcore.Gated is -1). Copy before retaining.
	Levels []int `json:"levels"`
}

// Reasons an AllocEvent reports.
const (
	// AllocMargin is a protective-power-margin shed at the end of a
	// tracking session (Section 4.3).
	AllocMargin = "margin"
	// AllocShed is a mid-period shed: demand drifted over the budget.
	AllocShed = "shed"
	// AllocRaise is a mid-period raise: the supply recovered beyond the
	// hysteresis band.
	AllocRaise = "raise"
	// AllocRevert undoes a probing raise that overshot the budget.
	AllocRevert = "revert"
	// AllocBrownout is a brownout-guard shed: the rail voltage sagged
	// below tolerance under an injected power-path fault and the engine
	// shed load within the same sub-sample (DESIGN.md §11).
	AllocBrownout = "brownout"
)

// AllocEvent reports one per-core DVFS move performed outside a tracking
// session (the Figure 12 mid-period load adaptation, or the protective
// margin at session end).
type AllocEvent struct {
	// Minute is the move time in minutes since midnight.
	Minute float64 `json:"minute"`
	// Dir is +1 for a raise, -1 for a lower.
	Dir int `json:"dir"`
	// Reason is one of AllocMargin, AllocShed, AllocRaise, AllocRevert.
	Reason string `json:"reason"`
	// DemandW is the chip demand after the move (W).
	DemandW float64 `json:"demand_w"`
	// BudgetW is the available post-conversion solar power at the move
	// (W); zero for controller-internal moves that carry no budget.
	BudgetW float64 `json:"budget_w"`
}

// TickEvent samples one simulation sub-sample: the tracked (consumed)
// versus available power pair plotted in Figures 13-14.
type TickEvent struct {
	// Minute is the sub-sample time in minutes since midnight.
	Minute float64 `json:"minute"`
	// BudgetW is the maximal deliverable solar power after conversion (W).
	BudgetW float64 `json:"budget_w"`
	// DemandW is the chip draw (W), from whichever supply carries it.
	DemandW float64 `json:"demand_w"`
	// OnSolar reports whether the sub-sample ran on the panel.
	OnSolar bool `json:"on_solar"`
}

// RunEndEvent closes a completed day run with its headline totals.
type RunEndEvent struct {
	// Runner names the engine entry point, matching the RunStartEvent.
	Runner string `json:"runner"`
	// SolarWh and UtilityWh are the energies delivered to the chip.
	SolarWh   float64 `json:"solar_wh"`
	UtilityWh float64 `json:"utility_wh"`
	// SolarMin is the effective solar-powered duration (minutes).
	SolarMin float64 `json:"solar_min"`
	// DaytimeMin is the simulated daytime span (minutes).
	DaytimeMin float64 `json:"daytime_min"`
	// Overloads counts tracking periods that fell back to the utility.
	Overloads int `json:"overloads"`
	// Transitions counts per-core DVFS level changes over the day.
	Transitions uint64 `json:"transitions"`
	// ATSSwitches counts automatic-transfer-switch supply transitions.
	ATSSwitches int `json:"ats_switches"`

	// Fault-path counters (DESIGN.md §11). All are zero — and omitted
	// from the JSONL encoding — on fault-free runs, keeping clean traces
	// byte-identical to pre-fault-layer streams.
	//
	// FaultsInjected counts fault window openings over the run.
	FaultsInjected int `json:"faults_injected,omitempty"`
	// BrownoutSheds counts brownout-guard load sheds.
	BrownoutSheds int `json:"brownout_sheds,omitempty"`
	// WatchdogTrips counts MPPT-supervision trips into fallback.
	WatchdogTrips int `json:"watchdog_trips,omitempty"`
	// FallbackPeriods counts tracking periods run on the de-rated
	// Fixed-Power fallback budget.
	FallbackPeriods int `json:"fallback_periods,omitempty"`
	// SolverFaults counts typed solver faults absorbed instead of
	// aborting the run.
	SolverFaults int `json:"solver_faults,omitempty"`
	// RecoveryMin totals trip-to-recovery durations (minutes).
	RecoveryMin float64 `json:"recovery_min,omitempty"`
}

// Nop is the no-op Observer: On returns immediately. Attaching it
// (rather than nil) exercises the full emit path; the root benchmark
// BenchmarkRunMPPTNopObserver measures its overhead (about 4 % of a
// day, see the package doc).
type Nop struct{}

// On implements Observer.
func (Nop) On(Event) {}

// Multi fans every event out to each non-nil observer in order. It
// returns nil when the list has no non-nil entries and the single
// observer itself when it has exactly one, so callers can attach the
// result directly without paying for an empty fan-out.
func Multi(observers ...Observer) Observer {
	var live multi
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Observer

// On implements Observer.
func (m multi) On(ev Event) {
	for _, o := range m {
		o.On(ev)
	}
}
