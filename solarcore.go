// Package solarcore is a library-scale reproduction of "SolarCore: Solar
// Energy Driven Multi-core Architecture Power Management" (Li, Zhang, Cho,
// Li — HPCA 2011): a battery-less, directly-coupled photovoltaic supply
// driving a multi-core processor whose power management jointly performs
// maximum power point tracking and throughput-optimal per-core DVFS
// allocation.
//
// The package is a facade over the internal simulation stack:
//
//   - a single-diode PV electrical model calibrated to the BP3180N module
//     (I-V/P-V characteristics, MPP);
//   - a synthetic meteorological generator for the paper's four NREL MIDC
//     sites and four seasons, with CSV import for measured traces;
//   - the DC/DC matching converter, transfer switch, and battery-system
//     baselines;
//   - an 8-core DVFS/power-gating chip model running SPEC2000-like
//     multi-programmed workloads;
//   - the SolarCore MPPT controller and the Table 6 scheduling policies;
//   - a discrete-time engine producing the paper's metrics (green-energy
//     utilization, tracking error, effective duration, performance-time
//     product).
//
// Quick start (the Runner is the unified entry point; see NewRunner):
//
//	trace := solarcore.GenerateWeather(solarcore.AZ, solarcore.Jul, 0)
//	day, _ := solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
//	mix, _ := solarcore.MixByName("HM2")
//	runner, _ := solarcore.NewRunner(solarcore.Config{Day: day, Mix: mix},
//	        solarcore.WithPolicy(solarcore.PolicyOpt))
//	res, _ := runner.Run()
//	fmt.Printf("utilization %.0f%%\n", res.Utilization()*100)
//
// For network consumers, RunSpec is the serializable equivalent of a
// Runner configuration: cmd/solard (internal/serve) exposes the full
// Runner API over HTTP — coalesced, cached and backpressured — keyed on
// RunSpec.Hash (DESIGN.md §12).
package solarcore

import (
	"io"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/mcore"
	"solarcore/internal/mppt"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/sim"
	"solarcore/internal/sustain"
	"solarcore/internal/thermal"
	"solarcore/internal/workload"
)

// Meteorological inputs (package atmos).
type (
	// Site is an evaluated geographic location (Table 2).
	Site = atmos.Site
	// Season is one of the evaluated mid-month periods.
	Season = atmos.Season
	// Trace is a sampled daytime irradiance/temperature record.
	Trace = atmos.Trace
	// WeatherSample is one meteorological observation.
	WeatherSample = atmos.Sample
)

// The evaluated sites (Table 2) and seasons.
var (
	AZ = atmos.AZ
	CO = atmos.CO
	NC = atmos.NC
	TN = atmos.TN

	Sites = atmos.Sites
)

// The evaluated seasons (mid Jan/Apr/Jul/Oct).
const (
	Jan = atmos.Jan
	Apr = atmos.Apr
	Jul = atmos.Jul
	Oct = atmos.Oct
)

// PV generation (package pv).
type (
	// ModuleParams describes one PV module electrically.
	ModuleParams = pv.ModuleParams
	// Module is a PV module evaluated under arbitrary environments.
	Module = pv.Module
	// Array is a series-parallel interconnection of identical modules.
	Array = pv.Array
	// Generator is the common read interface of modules and arrays.
	Generator = pv.Generator
	// Env is the atmospheric operating condition seen by the panel.
	Env = pv.Env
	// MPP is a maximum power point.
	MPP = pv.MPP
	// IVPoint is one sample of an I-V sweep.
	IVPoint = pv.IVPoint
	// ShadedString is a series string under non-uniform irradiance with
	// bypass diodes (multi-peak P-V curves).
	ShadedString = pv.ShadedString
)

// BP3180N returns parameters for the 180 W module the paper models.
func BP3180N() ModuleParams { return pv.BP3180N() }

// NewModule builds a PV module model.
func NewModule(p ModuleParams) *Module { return pv.NewModule(p) }

// NewArray builds a series×parallel array of identical modules.
func NewArray(p ModuleParams, series, parallel int) *Array { return pv.NewArray(p, series, parallel) }

// IVCurve samples a generator's characteristic at n voltages.
func IVCurve(g Generator, env Env, n int) []IVPoint { return pv.IVCurve(g, env, n) }

// NewShadedString builds a partially shaded series string with per-module
// irradiance scales and bypass diodes.
func NewShadedString(p ModuleParams, scales []float64) *ShadedString {
	return pv.NewShadedString(p, scales)
}

// Multi-core chip (package mcore) and workloads (package workload).
type (
	// ChipConfig describes the simulated processor (Table 4 defaults).
	ChipConfig = mcore.Config
	// Chip is the simulated multi-core processor.
	Chip = mcore.Chip
	// OpPoint is one DVFS operating point.
	OpPoint = mcore.OpPoint
	// Benchmark is one SPEC2000 program's execution model.
	Benchmark = workload.Benchmark
	// Mix is one multi-programmed workload of Table 5.
	Mix = workload.Mix
)

// DefaultChip returns the paper's simulated machine configuration.
func DefaultChip() ChipConfig { return mcore.DefaultConfig() }

// NewChip builds a multi-core chip model.
func NewChip(cfg ChipConfig) (*Chip, error) { return mcore.NewChip(cfg) }

// Benchmarks lists the twelve modeled SPEC2000 programs.
func Benchmarks() []Benchmark { return workload.All }

// Mixes lists the ten Table 5 workload mixes.
func Mixes() []Mix { return workload.Mixes }

// MixByName returns a Table 5 mix ("H1" … "ML2").
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// Power delivery (package power) and control (package mppt).
type (
	// Converter is the tunable DC/DC matching network.
	Converter = power.Converter
	// Circuit couples a generator to the processor rail.
	Circuit = power.Circuit
	// BatteryGrade is one Table 3 battery-system performance level.
	BatteryGrade = power.BatteryGrade
	// BankConfig sizes a realistic battery bank.
	BankConfig = power.BankConfig
	// Bank is a stateful battery bank with SoC, losses and cycling wear.
	Bank = power.Bank
	// Controller is the SolarCore MPPT controller.
	Controller = mppt.Controller
	// ControllerConfig tunes the controller.
	ControllerConfig = mppt.Config
	// TrackResult reports one tracking invocation.
	TrackResult = mppt.Result
	// Allocator is a per-core load-adaptation policy.
	Allocator = sched.Allocator
)

// Battery comparison constants (Table 3 / Section 6.4).
var (
	BatteryGrades = power.BatteryGrades
)

// Battery-system conversion-efficiency brackets from Section 6.4.
const (
	BatteryUpperEff = power.BatteryUpperEff
	BatteryLowerEff = power.BatteryLowerEff
)

// Table 6 policy names.
const (
	PolicyIC  = "MPPT&IC"
	PolicyRR  = "MPPT&RR"
	PolicyOpt = "MPPT&Opt"
)

// Policies lists the MPPT load-adaptation policies in the paper's order;
// sched.Names is the single source of truth for the set.
func Policies() []string { return sched.Names() }

// NewController wires a SolarCore controller over a circuit, chip and
// policy name. An unrecognized name reports ErrUnknownPolicy.
func NewController(circuit *Circuit, chip *Chip, policy string, cfg ControllerConfig) (*Controller, error) {
	alloc, err := allocByName(policy)
	if err != nil {
		return nil, err
	}
	return mppt.New(circuit, chip, alloc, cfg)
}

// Simulation (package sim).
type (
	// Config describes one day run.
	Config = sim.Config
	// DayResult aggregates one policy run over one day.
	DayResult = sim.DayResult
	// SolarDay is a weather trace bound to a concrete PV array.
	SolarDay = sim.SolarDay
	// TracePoint is one sub-sample of a day run.
	TracePoint = sim.TracePoint
)

// SiteByCode returns the Table 2 site with the given code ("AZ", "CO",
// "NC" or "TN") — the resolver RunSpec.Validate uses.
func SiteByCode(code string) (Site, error) { return atmos.SiteByCode(code) }

// SeasonByName parses a season name ("Jan", "Apr", "Jul" or "Oct").
func SeasonByName(name string) (Season, error) { return atmos.SeasonByName(name) }

// GenerateWeather produces the deterministic synthetic daytime trace for a
// site, season and day index.
func GenerateWeather(site Site, season Season, day int) *Trace {
	return atmos.Generate(site, season, atmos.GenConfig{Day: day})
}

// GenerateWeatherRun produces n consecutive days with day-to-day weather
// persistence (fronts linger across days).
func GenerateWeatherRun(site Site, season Season, n int) []*Trace {
	return atmos.GenerateRun(site, season, n, atmos.GenConfig{})
}

// Mount selects the panel aiming strategy.
type Mount = atmos.Mount

// Panel mounts: a fixed tilt (the evaluation default) or a single-axis
// tracker that follows the sun east to west.
const (
	FixedTilt         = atmos.FixedTilt
	SingleAxisTracker = atmos.SingleAxisTracker
)

// ReadWeatherCSV parses a trace written by Trace.WriteCSV.
func ReadWeatherCSV(r io.Reader, site Site, season Season) (*Trace, error) {
	return atmos.ReadCSV(r, site, season)
}

// ReadMIDC parses an NREL MIDC station export — the paper's actual data
// source — into a Trace.
func ReadMIDC(r io.Reader, site Site, season Season) (*Trace, error) {
	return atmos.ReadMIDC(r, site, season)
}

// NewDayFromGenerator binds a trace to an arbitrary PV generator (e.g. a
// partially shaded string); params supplies the cell-temperature model.
func NewDayFromGenerator(tr *Trace, gen Generator, params ModuleParams) (*SolarDay, error) {
	return sim.NewSolarDayGen(tr, gen, params)
}

// PartiallyShadedModule splits one module into bypass-diode groups with
// per-group irradiance scales, producing a multi-peak P-V curve.
func PartiallyShadedModule(p ModuleParams, groupScales []float64) *ShadedString {
	return pv.PartiallyShadedModule(p, groupScales)
}

// ThermalConfig parameterizes the per-core RC die-temperature model.
type ThermalConfig = thermal.Config

// DefaultThermal returns 90 nm server-class thermal parameters.
func DefaultThermal() ThermalConfig { return thermal.DefaultConfig() }

// SyntheticMix draws a deterministic random mix with the given EPI-class
// composition, extending the Table 5 workloads.
func SyntheticMix(name string, high, moderate, low int, seed int64) (Mix, error) {
	return workload.SyntheticMix(name, high, moderate, low, seed)
}

// TraceActivity replays a recorded per-interval (IPC, Ceff) profile.
type TraceActivity = workload.TraceActivity

// ReadActivityCSV parses a minute,ipc,ceff_nf profile for TraceActivity.
func ReadActivityCSV(r io.Reader) (*TraceActivity, error) {
	return workload.ReadActivityCSV(r)
}

// Sustainability accounting (package sustain).
type (
	// GridProfile characterizes a site's utility grid.
	GridProfile = sustain.GridProfile
	// Impact is the carbon/cost ledger of one simulated day.
	Impact = sustain.Impact
)

// GridProfileFor returns the regional grid profile of a Table 2 site code.
func GridProfileFor(siteCode string) GridProfile { return sustain.ProfileFor(siteCode) }

// AssessImpact computes a day's carbon and cost ledger against a grid.
func AssessImpact(res *DayResult, gp GridProfile) Impact { return sustain.Assess(res, gp) }

// Fault injection and graceful degradation (package fault, DESIGN.md §11).
type (
	// FaultSchedule is a deterministic, seeded composition of fault
	// injectors — the whole fault plan for one simulated day. Install it
	// with WithFaults (or Config.Faults); the zero value is a no-op.
	FaultSchedule = fault.Schedule
	// FaultInjector is one scheduled disturbance: a kind listed by
	// FaultKinds, active over a window at an intensity in [0,1].
	FaultInjector = fault.Injector
	// FaultWindow is a half-open activity interval [T0, T1) in minutes.
	FaultWindow = fault.Window
	// FaultReport aggregates a run's injected disturbances and the
	// degradation responses (DayResult.Faults).
	FaultReport = sim.FaultReport
)

// ErrSolverFault marks an injected (or detected) operating-point solver
// failure, absorbed by the degradation machinery instead of aborting the
// run; test with errors.Is.
var ErrSolverFault = fault.ErrSolverFault

// ParseFaults parses a CLI-style fault-schedule spec: semicolon-separated
// "kind:t0=M,t1=M,i=F[,seed=N]" clauses (the solarsim/solarfleet -faults
// syntax). An unknown kind or malformed clause returns an error listing
// the valid kinds.
func ParseFaults(spec string) (*FaultSchedule, error) { return fault.ParseSpec(spec) }

// FaultKinds lists the built-in injector spec keywords.
func FaultKinds() []string { return fault.Kinds() }

// NewFaultSchedule composes fault injectors under one seed.
func NewFaultSchedule(seed int64, injectors ...FaultInjector) *FaultSchedule {
	return fault.NewSchedule(seed, injectors...)
}

// SeriesResult aggregates a multi-day deployment.
type SeriesResult = sim.SeriesResult

// NewDay binds a weather trace to a series×parallel array of the given
// module, precomputing its maximum-power-point profile.
func NewDay(tr *Trace, params ModuleParams, series, parallel int) (*SolarDay, error) {
	return sim.NewSolarDay(tr, params, series, parallel)
}

// BankDayResult extends DayResult with battery-bank diagnostics.
type BankDayResult = sim.BankDayResult

// LeadAcidBank returns a typical deep-cycle lead-acid bank configuration.
func LeadAcidBank(capacityWh float64) BankConfig { return power.LeadAcidBank(capacityWh) }

// NewBank builds a stateful battery bank.
func NewBank(cfg BankConfig) (*Bank, error) { return power.NewBank(cfg) }
