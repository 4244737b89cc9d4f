package sim

import (
	"fmt"
	"math"

	"solarcore/internal/obs"
	"solarcore/internal/power"
)

// BankDayResult extends DayResult with battery-bank diagnostics from a
// time-coupled standalone run.
type BankDayResult struct {
	DayResult

	// Cycles is the bank's equivalent-full-cycle odometer increase.
	Cycles float64
	// CapacityFadeWh is the nameplate capacity lost to cycling this run.
	CapacityFadeWh float64
	// BatteryLossWh is the conversion + self-discharge energy lost.
	BatteryLossWh float64
	// HaltMin counts minutes the load was unpowered (bank dry, sun
	// insufficient) — a standalone system has no utility to fall back on.
	HaltMin float64
	// FinalSoC is the bank state of charge at the end of the run.
	FinalSoC float64
}

// RunBatteryBank simulates one day of a realistic battery-equipped
// standalone system (Figure 2-C): a dedicated MPPT charge controller
// harvests trackingEff × the panel MPP; the load draws directly from the
// controller when the sun covers it and from the bank otherwise; surplus
// charges the bank. Unlike RunBattery's idealized energy-bucket bound, this
// run sees rate limits, asymmetric losses, self-discharge, the
// depth-of-discharge floor, and cycling wear. The bank state persists
// across calls, so multi-day deployments can chain runs.
func RunBatteryBank(cfg Config, bank *power.Bank, trackingEff float64) (*BankDayResult, error) {
	res := &BankDayResult{}
	var r dayRun
	if err := r.begin(&cfg, &res.DayResult, "BatteryBank", "BatteryBank"); err != nil {
		return nil, err
	}
	if bank == nil {
		return nil, fmt.Errorf("sim: bank required")
	}
	if trackingEff <= 0 || trackingEff > 1 {
		return nil, fmt.Errorf("sim: tracking efficiency %v outside (0,1]", trackingEff)
	}
	chip := r.chip
	_ = chip.SetAllLevels(chip.NumLevels() - 1) // stable supply: run flat out (level is in range)
	r.start()
	cycles0 := bank.EquivalentFullCycles()
	cap0 := bank.CapacityWh()
	loss0 := bank.LossWh()

	start, end := cfg.Day.StartMinute(), cfg.Day.EndMinute()
	for t := start; t < end-1e-9; t += cfg.StepMin {
		if err := cfg.canceled(); err != nil {
			// The bank has already absorbed this run's partial
			// charge/discharge history; callers chaining multi-day
			// deployments should discard it after a cancellation.
			return nil, err
		}
		dt := math.Min(cfg.StepMin, end-t)
		harvest := trackingEff * cfg.Day.MPPAt(t)
		r.at(t)
		demand := chip.Power()

		direct := math.Min(harvest, demand)
		deficit := demand - direct
		fromBank := 0.0
		if deficit > 0 {
			fromBank = bank.Discharge(deficit, dt)
		}
		powered := direct+fromBank >= demand*0.999

		if surplus := harvest - direct; surplus > 0 {
			bank.Charge(surplus, dt)
		}
		bank.Idle(dt)

		obs.Tick(r.o, obs.TickEvent{Minute: t, BudgetW: harvest, DemandW: demand, OnSolar: powered})
		if powered {
			res.SolarMin += dt
			r.meter.Add(power.Solar, demand, dt)
			ginstr := chip.Throughput() * dt * 60
			res.GInstrSolar += ginstr
			res.GInstrTotal += ginstr
		} else {
			// The load browns out: undo the partial bank draw's delivery
			// accounting is unnecessary (energy already left the cells — a
			// real brownout wastes it), but no instructions commit.
			res.HaltMin += dt
		}
		if cfg.KeepSeries {
			actual := 0.0
			if powered {
				actual = demand
			}
			res.Series = append(res.Series, TracePoint{Minute: t, BudgetW: harvest, ActualW: actual, OnSolar: powered})
		}
	}

	res.Cycles = bank.EquivalentFullCycles() - cycles0
	res.CapacityFadeWh = cap0 - bank.CapacityWh()
	res.BatteryLossWh = bank.LossWh() - loss0
	res.FinalSoC = bank.SoC()
	r.end()
	return res, nil
}
