package exp

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/dc"
	"solarcore/internal/sched"
	"solarcore/internal/sim"
	"solarcore/internal/sustain"
	"solarcore/internal/thermal"
	"solarcore/internal/workload"
)

// AblationThermal sweeps the die-temperature trip point on the hottest
// evaluated weather (Jul@AZ): solar-driven allocation meets the thermal
// wall of the related work's thermal-constrained DVFS.
func AblationThermal(l *Lab) AblationResult {
	out := AblationResult{
		Title: "Ablation: thermal trip point (Jul@AZ)",
		Knob:  "die TMax for the throttle governor (∞ = unconstrained)",
	}
	mix, err := workload.MixByName("H1")
	if err != nil {
		panic(err)
	}
	run := func(label string, cfg sim.Config) {
		cfg.Mix = mix
		cfg.Day = l.Day(atmos.AZ, atmos.Jul)
		cfg.StepMin = l.Opts.stepMin()
		res, err := sim.RunMPPT(cfg, sched.OptTPR{})
		if err != nil {
			panic(err)
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:       fmt.Sprintf("%s (%d throttles, peak %.0f°C)", label, res.ThrottleEvents, res.PeakTempC),
			Utilization: res.Utilization(),
			TrackErr:    res.TrackErrGeoMean(),
			PTP:         res.PTP(),
			Duration:    res.EffectiveDuration(),
		})
	}
	run("unconstrained", sim.Config{})
	for _, tmax := range []float64{95, 85, 75} {
		tc := thermal.DefaultConfig()
		tc.TMaxC = tmax
		run(fmt.Sprintf("TMax %.0f°C", tmax), sim.Config{Thermal: &tc})
	}
	return out
}

// ConsolidationRow is one budget point of the cluster study.
type ConsolidationRow struct {
	BudgetW        float64
	ActiveOverhead float64 // active nodes with 25 W/node PSU overhead
	ActiveFree     float64 // active nodes with no overhead
	ThroughputOver float64 // GIPS with overhead
	ThroughputFree float64
}

// ConsolidationResult is the datacenter-scale study: how the global TPR
// allocator concentrates work onto fewer servers as the solar budget
// shrinks, once node overhead makes idle servers expensive.
type ConsolidationResult struct {
	Nodes int
	Rows  []ConsolidationRow
}

// ConsolidationStudy sweeps the cluster budget.
func ConsolidationStudy() ConsolidationResult {
	var mixes []workload.Mix
	for _, name := range []string{"HM2", "ML2", "M2", "L2"} {
		m, err := workload.MixByName(name)
		if err != nil {
			panic(err)
		}
		mixes = append(mixes, m)
	}
	build := func(overhead float64) *dc.Cluster {
		c, err := dc.New(dc.Config{Nodes: 6, Mixes: mixes, NodeOverheadW: overhead})
		if err != nil {
			panic(err)
		}
		return c
	}
	res := ConsolidationResult{Nodes: 6}
	for _, budget := range []float64{60, 120, 240, 480, 900} {
		over := build(25)
		free := build(0)
		over.FillBudget(budget) // fresh clusters are sampled at minute 0
		free.FillBudget(budget)
		res.Rows = append(res.Rows, ConsolidationRow{
			BudgetW:        budget,
			ActiveOverhead: float64(over.ActiveNodes()),
			ActiveFree:     float64(free.ActiveNodes()),
			ThroughputOver: over.Throughput(),
			ThroughputFree: free.Throughput(),
		})
	}
	return res
}

// Render draws the consolidation table.
func (c ConsolidationResult) Render() string {
	var rows [][]string
	for _, r := range c.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f W", r.BudgetW),
			fmt.Sprintf("%.0f / %d", r.ActiveOverhead, c.Nodes),
			fmt.Sprintf("%.0f / %d", r.ActiveFree, c.Nodes),
			f1(r.ThroughputOver), f1(r.ThroughputFree),
		})
	}
	return renderTable(
		"Cluster consolidation: active nodes vs shared solar budget (6 nodes)",
		[]string{"budget", "active (25 W overhead)", "active (no overhead)", "GIPS (overhead)", "GIPS (free)"}, rows)
}

// SustainabilityRow is one site of the carbon/cost study.
type SustainabilityRow struct {
	Site            string
	Grid            string
	CarbonReduction float64 // fraction of chip footprint eliminated
	SavedKgPerDay   float64
	SavedUSDPerYear float64 // per chip, extrapolated
}

// SustainabilityResult quantifies the paper's motivating claim — carbon
// footprint reduction — per site under MPPT&Opt, averaged over seasons.
type SustainabilityResult struct {
	Rows []SustainabilityRow
}

// Sustainability computes the study from the shared grid.
func Sustainability(l *Lab) SustainabilityResult {
	var res SustainabilityResult
	mixes := l.Opts.Mixes()
	for _, site := range atmos.Sites {
		gp := sustain.ProfileFor(site.Code)
		var impacts []sustain.Impact
		for _, season := range atmos.Seasons {
			for _, mix := range mixes {
				impacts = append(impacts, sustain.Assess(l.MPPT(site, season, mix, "MPPT&Opt"), gp))
			}
		}
		total := sustain.Sum(impacts...)
		days := float64(len(impacts))
		res.Rows = append(res.Rows, SustainabilityRow{
			Site:            site.Code,
			Grid:            gp.Name,
			CarbonReduction: total.CarbonReduction(),
			SavedKgPerDay:   total.CarbonSavedKg / days,
			SavedUSDPerYear: total.CostSaved / days * 365,
		})
	}
	return res
}

// Render draws the per-site sustainability table.
func (s SustainabilityResult) Render() string {
	var rows [][]string
	for _, r := range s.Rows {
		rows = append(rows, []string{
			r.Site, r.Grid, pct(r.CarbonReduction),
			fmt.Sprintf("%.2f kg", r.SavedKgPerDay),
			fmt.Sprintf("$%.0f", r.SavedUSDPerYear),
		})
	}
	return renderTable(
		"Sustainability: chip carbon footprint eliminated by SolarCore (MPPT&Opt)",
		[]string{"site", "grid", "carbon reduction", "CO2 saved/day", "cost saved/yr"}, rows)
}

// MountRow is one site of the mounting study.
type MountRow struct {
	Site        string
	FixedWh     float64 // daily panel MPP energy, fixed tilt
	TrackedWh   float64 // same day on a single-axis tracker
	EnergyGain  float64 // TrackedWh/FixedWh − 1
	PTPGain     float64 // SolarCore PTP gain from the tracker
	UtilTracked float64
}

// MountStudyResult compares fixed-tilt and single-axis-tracker mounts: the
// tracker harvests more panel energy, but a chip-limited system cannot
// always convert the surplus into instructions — sizing insight the paper's
// single-panel setup implies but never shows.
type MountStudyResult struct {
	Season string
	Rows   []MountRow
}

// MountStudy runs the comparison on each site's April day.
func MountStudy(l *Lab) MountStudyResult {
	mix, err := workload.MixByName("M2")
	if err != nil {
		panic(err)
	}
	res := MountStudyResult{Season: atmos.Apr.String()}
	for _, site := range atmos.Sites {
		fixedDay := l.Day(site, atmos.Apr)
		// WithMount returns a copy, so the shared cached day stays untouched.
		trackedDay, err := sim.NewSolarDay(fixedDay.Trace.WithMount(atmos.SingleAxisTracker), fixedDay.Params, 1, 1)
		if err != nil {
			panic(err)
		}
		runPTP := func(day *sim.SolarDay) (float64, float64) {
			r, err := sim.RunMPPT(sim.Config{Day: day, Mix: mix, StepMin: l.Opts.stepMin()}, sched.OptTPR{})
			if err != nil {
				panic(err)
			}
			return r.PTP(), r.Utilization()
		}
		fixedPTP, _ := runPTP(fixedDay)
		trackedPTP, trackedUtil := runPTP(trackedDay)
		res.Rows = append(res.Rows, MountRow{
			Site:        site.Code,
			FixedWh:     fixedDay.MPPEnergyWh(),
			TrackedWh:   trackedDay.MPPEnergyWh(),
			EnergyGain:  trackedDay.MPPEnergyWh()/fixedDay.MPPEnergyWh() - 1,
			PTPGain:     trackedPTP/fixedPTP - 1,
			UtilTracked: trackedUtil,
		})
	}
	return res
}

// Render draws the mount comparison.
func (m MountStudyResult) Render() string {
	var rows [][]string
	for _, r := range m.Rows {
		rows = append(rows, []string{
			r.Site, fmt.Sprintf("%.0f Wh", r.FixedWh), fmt.Sprintf("%.0f Wh", r.TrackedWh),
			pct(r.EnergyGain), pct(r.PTPGain), pct(r.UtilTracked),
		})
	}
	return renderTable(
		fmt.Sprintf("Mount study (%s): fixed tilt vs single-axis tracker", m.Season),
		[]string{"site", "fixed energy", "tracked energy", "energy gain", "PTP gain", "util (tracked)"}, rows)
}
