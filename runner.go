package solarcore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/obs"
	"solarcore/internal/sched"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

// ErrUnknownPolicy reports a policy name outside the Table 6 set. Every
// name-resolving entry point (NewRunner and NewController) wraps it, so
// callers can test with errors.Is(err, ErrUnknownPolicy).
var ErrUnknownPolicy = errors.New("unknown policy")

// allocByName resolves a Table 6 policy name to a fresh allocator;
// sched.ByName is the single source of truth for the name set.
func allocByName(policy string) (Allocator, error) {
	alloc, ok := sched.ByName(policy)
	if !ok {
		return nil, fmt.Errorf("solarcore: %w %q (want one of %v)", ErrUnknownPolicy, policy, Policies())
	}
	return alloc, nil
}

// Observability layer (package obs). Observer events, metric names and
// the JSONL event schema are specified in DESIGN.md §10.
type (
	// Observer receives a run's events through its one method, On (see
	// WithObserver).
	Observer = obs.Observer
	// Registry is a concurrency-safe store of counters, gauges and
	// histograms with snapshot export.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time registry export; snapshots from
	// a fleet of runs merge with MergeMetrics.
	MetricsSnapshot = obs.Snapshot
	// JSONLSink is an Observer appending one JSON line per event to a
	// writer, in the schema ReadEvents decodes.
	JSONLSink = obs.JSONLSink
	// ObsEvent is one JSONL event envelope: what an Observer receives
	// and what ReadEvents decodes.
	ObsEvent = obs.Event
)

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewJSONLSink builds an observer streaming events to w as JSON lines;
// call Flush (or Close) after the run.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// ReadEvents decodes and validates a JSONL event stream written by a
// JSONLSink.
func ReadEvents(r io.Reader) ([]ObsEvent, error) { return obs.ReadEvents(r) }

// MetricsObserver returns an Observer folding events into reg under the
// metric names of DESIGN.md §10.
func MetricsObserver(reg *Registry) Observer { return obs.Metrics(reg) }

// MergeMetrics aggregates registry snapshots across a fleet of runs.
func MergeMetrics(snaps ...MetricsSnapshot) MetricsSnapshot { return obs.MergeSnapshots(snaps...) }

// NopObserver returns the no-op observer: every event is received and
// discarded. Useful for exercising the full emit path in benchmarks.
func NopObserver() Observer { return obs.Nop{} }

// runMode selects which engine entry point a Runner drives.
type runMode int

const (
	modePolicy  runMode = iota // MPPT tracking under a Table 6 policy
	modeFixed                  // non-tracking fixed-budget baseline
	modeBattery                // idealized battery-system baseline
	modeBank                   // stateful battery-bank standalone system
)

func (m runMode) String() string {
	switch m {
	case modePolicy:
		return "WithPolicy"
	case modeFixed:
		return "WithFixedBudget"
	case modeBattery:
		return "WithBattery"
	case modeBank:
		return "WithBank"
	}
	return fmt.Sprintf("runMode(%d)", int(m))
}

// Runner is the unified simulation entry point: one Config plus
// functional options selects the mode (MPPT policy, fixed budget,
// battery baseline or battery bank) and the day or series to run.
//
//	r, err := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix},
//	        solarcore.WithPolicy(solarcore.PolicyOpt),
//	        solarcore.WithObserver(sink),
//	        solarcore.WithContext(ctx))
//	res, err := r.Run()
//
// Exactly one mode option (WithPolicy, WithFixedBudget, WithBattery,
// WithBank) may be given; none defaults to WithPolicy(PolicyOpt), the
// paper's headline configuration. A Runner is immutable after NewRunner
// and may be reused: every Run/RunSeries call simulates fresh state
// (except the battery bank, which deliberately persists across runs to
// model multi-day wear).
type Runner struct {
	cfg  Config
	mode runMode
	// modes records every mode option applied, for conflict reporting.
	modes []runMode

	policy     string
	budgetW    float64
	batteryEff float64
	bank       *Bank
	bankEff    float64

	ctx       context.Context
	observers []Observer
}

// RunnerOption configures a Runner at construction.
type RunnerOption func(*Runner)

// WithPolicy selects an MPPT tracking run under a Table 6 policy name
// (PolicyIC, PolicyRR or PolicyOpt).
func WithPolicy(policy string) RunnerOption {
	return func(r *Runner) {
		r.mode = modePolicy
		r.modes = append(r.modes, modePolicy)
		r.policy = policy
	}
}

// WithFixedBudget selects the non-tracking Fixed-Power baseline at the
// given constant budget in watts.
func WithFixedBudget(budgetW float64) RunnerOption {
	return func(r *Runner) {
		r.mode = modeFixed
		r.modes = append(r.modes, modeFixed)
		r.budgetW = budgetW
	}
}

// WithBattery selects the idealized battery-equipped baseline at the
// given overall conversion efficiency (e.g. BatteryUpperEff).
func WithBattery(eff float64) RunnerOption {
	return func(r *Runner) {
		r.mode = modeBattery
		r.modes = append(r.modes, modeBattery)
		r.batteryEff = eff
	}
}

// WithBank selects the realistic battery-bank standalone system: the
// bank persists across runs (rate limits, losses, self-discharge and
// cycling wear accumulate), harvesting trackingEff of the panel MPP.
func WithBank(bank *Bank, trackingEff float64) RunnerOption {
	return func(r *Runner) {
		r.mode = modeBank
		r.modes = append(r.modes, modeBank)
		r.bank = bank
		r.bankEff = trackingEff
	}
}

// WithObserver attaches an observer to the run's events. The
// option composes: each call adds another observer, and all of them (plus
// any Config.Observer) receive every event.
func WithObserver(o Observer) RunnerOption {
	return func(r *Runner) { r.observers = append(r.observers, o) }
}

// WithFaults installs a deterministic fault-injection schedule on every
// run (see ParseFaults and NewFaultSchedule). A nil or disarmed schedule
// — every injector at zero intensity — is exactly a no-op: the run is
// byte-identical to one without the option. Degradation activity is
// reported in DayResult.Faults and, with WithObserver, as fault/watchdog
// events.
func WithFaults(s *FaultSchedule) RunnerOption {
	return func(r *Runner) { r.cfg.Faults = s }
}

// WithContext attaches a cancellation context: the engine checks it at
// least once per tracking period (and per simulated day in RunSeries)
// and returns the wrapped context error instead of a partial result.
func WithContext(ctx context.Context) RunnerOption {
	return func(r *Runner) { r.ctx = ctx }
}

// NewRunner builds a Runner over cfg. It fails fast on conflicting mode
// options and on an unknown policy name (errors.Is ErrUnknownPolicy);
// value validation (budget sign, efficiency range, nil bank) stays with
// the engine, so every mode reports the engine's own errors.
func NewRunner(cfg Config, opts ...RunnerOption) (*Runner, error) {
	r := &Runner{cfg: cfg, mode: modePolicy, policy: PolicyOpt}
	for _, opt := range opts {
		opt(r)
	}
	if len(r.modes) > 1 {
		return nil, fmt.Errorf("solarcore: conflicting runner modes %v (give at most one)", r.modes)
	}
	if r.mode == modePolicy {
		if _, err := allocByName(r.policy); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runConfig materializes the per-run engine config: the base Config with
// the Runner's context and composed observers applied.
func (r *Runner) runConfig() Config {
	cfg := r.cfg
	if r.ctx != nil {
		cfg.Ctx = r.ctx
	}
	if len(r.observers) > 0 {
		all := append([]Observer{cfg.Observer}, r.observers...)
		cfg.Observer = obs.Multi(all...)
	}
	return cfg
}

// Run simulates one day in the Runner's mode. In bank mode it returns
// the embedded DayResult; use RunBank for the bank diagnostics.
func (r *Runner) Run() (*DayResult, error) {
	cfg := r.runConfig()
	switch r.mode {
	case modeFixed:
		return sim.RunFixed(cfg, r.budgetW)
	case modeBattery:
		return sim.RunBattery(cfg, r.batteryEff)
	case modeBank:
		res, err := sim.RunBatteryBank(cfg, r.bank, r.bankEff)
		if err != nil {
			return nil, err
		}
		return &res.DayResult, nil
	}
	alloc, err := allocByName(r.policy)
	if err != nil {
		return nil, err
	}
	return sim.RunMPPT(cfg, alloc)
}

// RunBank simulates one day against the persistent battery bank and
// returns its full diagnostics. It requires WithBank mode.
func (r *Runner) RunBank() (*BankDayResult, error) {
	if r.mode != modeBank {
		return nil, fmt.Errorf("solarcore: RunBank needs a WithBank runner (mode is %v)", r.mode)
	}
	return sim.RunBatteryBank(r.runConfig(), r.bank, r.bankEff)
}

// RunSpec is a fully serializable description of one simulated day: the
// wire format of the solard HTTP API (internal/serve, DESIGN.md §12) and
// of any other consumer that must name a run without holding live model
// objects. The zero value of every field means "the paper's default";
// Normalized materializes those defaults, and two specs describe the same
// simulation exactly when their Canonical strings are equal — Hash is the
// cache/coalescing identity the server uses.
type RunSpec struct {
	// Site is a Table 2 site code: "AZ", "CO", "NC" or "TN" (default AZ).
	Site string `json:"site,omitempty"`
	// Season is "Jan", "Apr", "Jul" or "Oct" (default Jul).
	Season string `json:"season,omitempty"`
	// Mix is a Table 5 workload mix name (default HM2).
	Mix string `json:"mix,omitempty"`
	// Policy is a Table 6 policy name; it selects an MPPT tracking run
	// and defaults to PolicyOpt. Mutually exclusive with FixedW and
	// BatteryEff.
	Policy string `json:"policy,omitempty"`
	// Day is the generated weather day index (default 0).
	Day int `json:"day,omitempty"`
	// StepMin is the sub-sampling step in minutes (default 1).
	StepMin float64 `json:"step_min,omitempty"`
	// Panels is the parallel 180 W panel count of the array (default 1).
	Panels int `json:"panels,omitempty"`
	// FixedW, when positive, selects the non-tracking Fixed-Power
	// baseline at this budget in watts instead of an MPPT policy.
	FixedW float64 `json:"fixed_w,omitempty"`
	// BatteryEff, when positive, selects the idealized battery baseline
	// at this overall conversion efficiency in (0, 1].
	BatteryEff float64 `json:"battery_eff,omitempty"`
	// Faults is a CLI-style fault-schedule spec (see ParseFaults); empty
	// means a fault-free run.
	Faults string `json:"faults,omitempty"`
}

// Normalized returns the spec with every defaulted field materialized:
// the result simulates identically to the receiver, and equal Normalized
// specs have equal Canonical strings.
func (s RunSpec) Normalized() RunSpec {
	if s.Site == "" {
		s.Site = "AZ"
	}
	if s.Season == "" {
		s.Season = "Jul"
	}
	if s.Mix == "" {
		s.Mix = "HM2"
	}
	if s.Policy == "" && s.FixedW <= 0 && s.BatteryEff <= 0 {
		s.Policy = PolicyOpt
	}
	if s.StepMin <= 0 {
		s.StepMin = 1
	}
	if s.Panels == 0 {
		s.Panels = 1
	}
	return s
}

// specFinite rejects NaN and ±Inf field values before they reach the
// canonical encoding or the engine.
func specFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("solarcore: spec %s is not finite", name)
	}
	return nil
}

// resolvedSpec is a spec that passed Validate, with every name-bearing
// field resolved to its model value.
type resolvedSpec struct {
	n      RunSpec // normalized
	site   atmos.Site
	season atmos.Season
	mix    workload.Mix
	faults *fault.Schedule
}

// Validate resolves every name-bearing field and checks value ranges,
// without running anything. An unknown Policy wraps ErrUnknownPolicy. A
// valid spec is guaranteed to build a Runner; engine-level failures can
// still surface at Run time (e.g. a degenerate weather day).
func (s RunSpec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolve is Validate keeping what it resolved, so Runner parses each
// name once.
func (s RunSpec) resolve() (resolvedSpec, error) {
	r := resolvedSpec{n: s.Normalized()}
	n := r.n
	var err error
	if r.site, err = atmos.SiteByCode(n.Site); err != nil {
		return r, fmt.Errorf("solarcore: spec site: %w", err)
	}
	if r.season, err = atmos.SeasonByName(n.Season); err != nil {
		return r, fmt.Errorf("solarcore: spec season: %w", err)
	}
	if r.mix, err = workload.MixByName(n.Mix); err != nil {
		return r, fmt.Errorf("solarcore: spec mix: %w", err)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"step_min", n.StepMin}, {"fixed_w", n.FixedW}, {"battery_eff", n.BatteryEff}} {
		if err := specFinite(f.name, f.v); err != nil {
			return r, err
		}
	}
	if n.Day < 0 {
		return r, fmt.Errorf("solarcore: spec day %d is negative", n.Day)
	}
	if n.Panels < 1 {
		return r, fmt.Errorf("solarcore: spec panels %d (want >= 1)", n.Panels)
	}
	if n.FixedW < 0 {
		return r, fmt.Errorf("solarcore: spec fixed_w %g is negative", n.FixedW)
	}
	if n.BatteryEff < 0 || n.BatteryEff > 1 {
		return r, fmt.Errorf("solarcore: spec battery_eff %g outside (0, 1]", n.BatteryEff)
	}
	baselines := 0
	if n.FixedW > 0 {
		baselines++
	}
	if n.BatteryEff > 0 {
		baselines++
	}
	if baselines > 1 {
		return r, fmt.Errorf("solarcore: spec selects both fixed_w and battery_eff (give at most one)")
	}
	if baselines > 0 && s.Policy != "" {
		return r, fmt.Errorf("solarcore: spec selects policy %q and a baseline (give at most one)", s.Policy)
	}
	if baselines == 0 {
		if _, err := allocByName(n.Policy); err != nil {
			return r, err
		}
	}
	if r.faults, err = fault.ParseSpec(n.Faults); err != nil {
		return r, fmt.Errorf("solarcore: spec faults: %w", err)
	}
	return r, nil
}

// Canonical renders the normalized spec as a stable, human-readable
// identity string: two specs simulate identically exactly when their
// Canonical strings are equal. Floats use the shortest round-trippable
// form, so the encoding is bijective for finite values. The string ends
// with sim.EngineVersion, so one spec run by two engine versions has two
// identities.
func (s RunSpec) Canonical() string {
	n := s.Normalized()
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := []string{
		"site=" + n.Site,
		"season=" + n.Season,
		"mix=" + n.Mix,
		"policy=" + n.Policy,
		"day=" + strconv.Itoa(n.Day),
		"step=" + g(n.StepMin),
		"panels=" + strconv.Itoa(n.Panels),
		"fixed=" + g(n.FixedW),
		"battery=" + g(n.BatteryEff),
		"faults=" + n.Faults,
		"engine=" + strconv.Itoa(sim.EngineVersion),
	}
	return strings.Join(parts, "|")
}

// Hash returns the hex SHA-256 of Canonical — the request identity
// solard's result cache and request coalescer key on.
func (s RunSpec) Hash() string {
	sum := sha256.Sum256([]byte(s.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Runner materializes the spec: it takes the weather day bound to the PV
// array from the process-wide day cache (sim.CachedDay), resolves the mix
// and builds a Runner in the spec's mode, with opts (observers, a
// context) applied on top. Validate runs first, so an invalid spec fails
// here with the same error.
func (s RunSpec) Runner(opts ...RunnerOption) (*Runner, error) {
	r, err := s.resolve()
	if err != nil {
		return nil, err
	}
	n := r.n
	day, _, err := sim.CachedDay(r.site, r.season, n.Day, n.Panels)
	if err != nil {
		return nil, fmt.Errorf("solarcore: spec day build: %w", err)
	}
	cfg := Config{Day: day, Mix: r.mix, StepMin: n.StepMin, Faults: r.faults}
	var mode RunnerOption
	switch {
	case n.FixedW > 0:
		mode = WithFixedBudget(n.FixedW)
	case n.BatteryEff > 0:
		mode = WithBattery(n.BatteryEff)
	default:
		mode = WithPolicy(n.Policy)
	}
	return NewRunner(cfg, append([]RunnerOption{mode}, opts...)...)
}

// Run materializes and runs the spec under ctx in one call; see Runner.
func (s RunSpec) Run(ctx context.Context, opts ...RunnerOption) (*DayResult, error) {
	r, err := s.Runner(append([]RunnerOption{WithContext(ctx)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return r.Run()
}

// RunSeries simulates consecutive days under the Runner's MPPT policy,
// overriding the base config's Day per day; the allocator state persists
// across days as a deployed controller's would. It requires WithPolicy
// mode (the baselines have no meaningful multi-day tracking state).
func (r *Runner) RunSeries(days []*SolarDay) (*SeriesResult, error) {
	if r.mode != modePolicy {
		return nil, fmt.Errorf("solarcore: RunSeries needs a WithPolicy runner (mode is %v)", r.mode)
	}
	alloc, err := allocByName(r.policy)
	if err != nil {
		return nil, err
	}
	return sim.RunMPPTSeries(r.runConfig(), alloc, days)
}
