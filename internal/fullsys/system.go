package fullsys

import (
	"math"

	"solarcore/internal/sim"
)

// System is a set of tunable devices managed as one load: the global
// throughput-power-ratio allocator moves whichever device state-step buys
// the most utility per watt (when the budget grows) or costs the least
// (when it shrinks) — the Figure 10 table generalized across component
// types. At samples every device; the reads and moves below use that
// sample.
type System struct {
	Devices []Device
}

// At samples every device's workload at a simulation minute.
//
// unit: minute=min
func (s *System) At(minute float64) {
	for _, d := range s.Devices {
		d.At(minute)
	}
}

// Power returns the total draw.
func (s *System) Power() float64 {
	sum := 0.0
	for _, d := range s.Devices {
		sum += d.PowerAt(d.State())
	}
	return sum
}

// Utility returns the total weighted service.
func (s *System) Utility() float64 {
	sum := 0.0
	for _, d := range s.Devices {
		sum += d.UtilityAt(d.State())
	}
	return sum
}

// probe evaluates the utility/power delta of moving device d by dir (±1)
// without moving it.
func probe(d Device, dir int) (dU, dP float64, ok bool) {
	s := d.State()
	next := s + dir
	if next < 0 || next >= d.NumStates() {
		return 0, 0, false
	}
	return d.UtilityAt(next) - d.UtilityAt(s), d.PowerAt(next) - d.PowerAt(s), true
}

// RaiseWithin moves the best utility-per-watt device whose next state's
// power increase fits in the given headroom one state up, so a budget fill
// can keep taking small steps after a large one stopped fitting; false
// when no step fits.
func (s *System) RaiseWithin(headroom float64) bool {
	best, bestTPR := -1, math.Inf(-1)
	for i, d := range s.Devices {
		dU, dP, ok := probe(d, +1)
		if !ok || dP > headroom {
			continue
		}
		var tpr float64
		switch {
		case dP > 0:
			tpr = dU / dP
		case dU > 0:
			tpr = math.Inf(1) // free utility
		default:
			tpr = 0
		}
		if tpr > bestTPR {
			best, bestTPR = i, tpr
		}
	}
	if best < 0 {
		return false
	}
	d := s.Devices[best]
	return d.SetState(d.State()+1) == nil
}

// Lower moves the least-costly device one state down; false when every
// device is already at its bottom state.
func (s *System) Lower() bool {
	best, bestCost := -1, math.Inf(1)
	for i, d := range s.Devices {
		dU, dP, ok := probe(d, -1)
		if !ok {
			continue
		}
		// dU ≤ 0, dP ≤ 0: cost = utility lost per watt reclaimed.
		var cost float64
		switch {
		case dP < 0:
			cost = dU / dP // positive: lost utility per saved watt
		case dU < 0:
			cost = math.Inf(1) // loses service, saves nothing
		default:
			cost = 0
		}
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return false
	}
	d := s.Devices[best]
	return d.SetState(d.State()-1) == nil
}

// FillBudget adapts the system until its power is as close under the
// budget as the device granularity allows: sheds while over, raises while
// the next step still fits. Returns the resulting power.
func (s *System) FillBudget(budget float64) float64 {
	guard := 0
	for s.Power() > budget && guard < 4096 {
		if !s.Lower() {
			break
		}
		guard++
	}
	for guard < 4096 {
		headroom := budget - s.Power()
		if headroom <= 0 || !s.RaiseWithin(headroom) {
			break
		}
		guard++
	}
	return s.Power()
}

// DayResult summarizes a full-system day run.
type DayResult struct {
	SolarWh      float64
	UtilityWh    float64 // backup energy while the budget was insufficient
	ServiceUnits float64 // ∫ utility dt, in weighted unit-seconds
	SolarMin     float64
	DaytimeMin   float64
}

// RunDay drives the system through a solar day: every trackPeriod the
// budget (η × panel MPP) is re-filled, and between tracking points the
// system sheds if the budget collapses. Devices below the minimum budget
// run from the utility backup, as in the processor-only engine.
func RunDay(day *sim.SolarDay, s *System, trackPeriodMin, stepMin, eta float64) DayResult {
	if trackPeriodMin <= 0 {
		trackPeriodMin = 10
	}
	if stepMin <= 0 {
		stepMin = 1
	}
	if eta <= 0 || eta > 1 {
		eta = 0.96
	}
	res := DayResult{DaytimeMin: day.DaytimeMinutes()}
	start, end := day.StartMinute(), day.EndMinute()
	for t0 := start; t0 < end; t0 += trackPeriodMin {
		t1 := math.Min(t0+trackPeriodMin, end)
		budget := eta * day.MPPAt(t0)
		s.At(t0)
		s.FillBudget(budget * 0.95) // one tracking margin
		for t := t0; t < t1-1e-9; t += stepMin {
			dt := math.Min(stepMin, t1-t)
			b := eta * day.MPPAt(t)
			s.At(t)
			p := s.Power()
			for p > b {
				if !s.Lower() {
					break
				}
				p = s.Power()
			}
			if p > 0 && p <= b {
				res.SolarWh += p * dt / 60
				res.SolarMin += dt
				res.ServiceUnits += s.Utility() * dt * 60
			} else {
				res.UtilityWh += p * dt / 60
			}
		}
	}
	return res
}
