package sim

import (
	"testing"
	"testing/quick"

	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
	"solarcore/internal/workload"
)

// The system-level invariants every day run must satisfy, checked across
// randomized (site, season, mix, policy, day) draws. These are the
// contracts downstream analyses rely on, independent of calibration.
func TestDayRunInvariants(t *testing.T) {
	prop := func(siteRaw, seasonRaw, mixRaw, policyRaw, dayRaw uint8) bool {
		site := atmos.Sites[int(siteRaw)%len(atmos.Sites)]
		season := atmos.Seasons[int(seasonRaw)%len(atmos.Seasons)]
		mix := workload.Mixes[int(mixRaw)%len(workload.Mixes)]
		alloc, _ := sched.ByName(sched.Names()[int(policyRaw)%3])

		tr := atmos.Generate(site, season, atmos.GenConfig{Day: int(dayRaw % 4)})
		day, err := NewSolarDay(tr, pv.BP3180N(), 1, 1)
		if err != nil {
			return false
		}
		res, err := RunMPPT(Config{Day: day, Mix: mix, StepMin: 4}, alloc)
		if err != nil {
			return false
		}

		// Energy conservation and bounds.
		if res.SolarWh < 0 || res.UtilityWh < 0 {
			return false
		}
		if res.SolarWh > res.MPPEnergyWh*1.0001 {
			return false // cannot extract more than the panel's maximum
		}
		// Time accounting.
		if res.SolarMin < 0 || res.SolarMin > res.DaytimeMin+1e-6 {
			return false
		}
		// Utilization and duration are proper fractions.
		if u := res.Utilization(); u < 0 || u > 1 {
			return false
		}
		if d := res.EffectiveDuration(); d < 0 || d > 1 {
			return false
		}
		// Work cannot be solar-powered beyond the total.
		if res.GInstrSolar < 0 || res.GInstrSolar > res.GInstrTotal+1e-6 {
			return false
		}
		// Tracking errors are proper fractions.
		for _, e := range res.PeriodErrs {
			if e < 0 || e > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// The same invariants hold for the baselines.
func TestBaselineInvariants(t *testing.T) {
	prop := func(siteRaw, budgetRaw uint8) bool {
		site := atmos.Sites[int(siteRaw)%len(atmos.Sites)]
		tr := atmos.Generate(site, atmos.Apr, atmos.GenConfig{})
		day, err := NewSolarDay(tr, pv.BP3180N(), 1, 1)
		if err != nil {
			return false
		}
		mix := workload.Mixes[0]
		cfg := Config{Day: day, Mix: mix, StepMin: 4}

		fx, err := RunFixed(cfg, 20+float64(budgetRaw))
		if err != nil {
			return false
		}
		if fx.SolarWh < 0 || fx.SolarWh > fx.MPPEnergyWh*1.0001 || fx.GInstrSolar > fx.GInstrTotal+1e-6 {
			return false
		}
		bt, err := RunBattery(cfg, 0.85)
		if err != nil {
			return false
		}
		// The idealized battery consumes exactly eff × MPP energy unless
		// the chip saturates; never more.
		return bt.SolarWh <= 0.85*bt.MPPEnergyWh*1.0001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Error(err)
	}
}
