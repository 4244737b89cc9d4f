package power

import (
	"math"

	"solarcore/internal/pv"
)

// Circuit couples a PV generator to the processor rail through the matching
// converter, reproducing the load-line picture of Figure 5 and the tuning
// semantics of Table 1.
//
// The chip at a fixed DVFS configuration is modeled as the resistance that
// draws its demanded power at the nominal rail voltage. Reflected through a
// ratio-k converter of efficiency η, a load resistance R appears to the
// panel as k²·R·η, so the operating point is the unique intersection of the
// panel I-V curve with that load line:
//
//   - raising the multi-core load w (lower R) swings the line
//     counterclockwise — load voltage falls, and output power rises or falls
//     depending on which side of the MPP the point sits (Table 1);
//   - raising k moves the panel-side voltage up at a given load — the
//     direction probe of tracking Step 2.
type Circuit struct {
	Gen      pv.Generator
	Conv     *Converter
	VNominal float64 // nominal load rail voltage (12 V in Figure 8)
}

// NewCircuit wires a generator to the standard 12 V rail through a default
// converter.
func NewCircuit(gen pv.Generator) *Circuit {
	return &Circuit{Gen: gen, Conv: NewConverter(), VNominal: 12}
}

// Operating describes one settled electrical operating point.
type Operating struct {
	VPanel float64 // panel terminal voltage, V
	IPanel float64 // panel output current, A
	VLoad  float64 // load rail voltage, V
	ILoad  float64 // load rail current, A
	PLoad  float64 // power delivered to the load, W
}

// LoadResistance converts a power demand at the nominal rail voltage into
// the equivalent load resistance. Zero or negative demand is an open
// circuit (+Inf).
//
// unit: pWatts=W, return=Ω
func (c *Circuit) LoadResistance(pWatts float64) float64 {
	if pWatts <= 0 {
		return math.Inf(1)
	}
	return c.VNominal * c.VNominal / pWatts
}

// Operate returns the settled operating point for a load resistance rLoad
// at the rail on the panel curve cv, at the converter's current ratio.
// The curve's ResistiveOperating settles the open-load and dark cases
// and answers a panel-side resistance it solved before from its memo; an
// open load stays +Inf on the panel side rather than k²·Inf·η, which is
// NaN when a derated converter has η = 0.
//
// unit: rLoad=Ω
func (c *Circuit) Operate(cv *pv.Curve, rLoad float64) Operating {
	rPanel := rLoad
	if !math.IsInf(rLoad, 1) {
		rPanel = c.Conv.K * c.Conv.K * rLoad * c.Conv.Efficiency
	}
	vp, ip := cv.ResistiveOperating(rPanel)
	vl := c.Conv.LoadVoltage(vp)
	il := c.Conv.LoadCurrent(ip)
	return Operating{VPanel: vp, IPanel: ip, VLoad: vl, ILoad: il, PLoad: vl * il}
}

// OperateAtDemand returns the operating point on the panel curve cv for
// a chip demanding pWatts at the nominal rail.
//
// unit: pWatts=W
func (c *Circuit) OperateAtDemand(cv *pv.Curve, pWatts float64) Operating {
	return c.Operate(cv, c.LoadResistance(pWatts))
}

// AvailableMax returns the maximum power the circuit can deliver to the
// load from the panel curve cv: its MPP derated by converter efficiency.
//
// unit: W
func (c *Circuit) AvailableMax(cv *pv.Curve) float64 {
	return cv.MPP().P * c.Conv.Efficiency
}

// MatchedRatio returns the converter ratio that would place the panel at
// the MPP voltage of cv while holding the rail at nominal — useful as an
// initial k and in tests; the tracker itself discovers this point by
// perturbation.
//
// unit: ratio
func (c *Circuit) MatchedRatio(cv *pv.Curve) float64 {
	mpp := cv.MPP()
	if mpp.V <= 0 {
		return c.Conv.K
	}
	return mpp.V / c.VNominal
}
