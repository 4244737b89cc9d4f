// Package tracker implements the classical converter-side MPPT algorithms
// the paper positions itself against (Section 7; Esram & Chapman's survey):
// perturb-and-observe, incremental conductance, and fractional open-circuit
// voltage. Each algorithm tunes only the DC/DC transfer ratio against a
// fixed electrical load.
//
// These trackers can extract near-maximal power, but — as Section 2.3
// argues — ratio-only tuning cannot also regulate the load rail: the
// operating voltage swings with the weather, which a processor cannot
// tolerate. The comparison harness measures both tracking efficiency and
// rail excursion, quantifying why SolarCore co-tunes the load.
package tracker

import (
	"math"

	"solarcore/internal/power"
	"solarcore/internal/pv"
)

// Algorithm is a converter-side MPPT policy. Step observes the present
// operating point on the panel curve cv through the circuit's sensors and
// may adjust the converter ratio; it is invoked once per control period.
type Algorithm interface {
	Name() string
	Step(c *power.Circuit, cv *pv.Curve, rLoad float64)
	Reset()
}

// PerturbObserve is the textbook P&O hill climber: perturb k in the current
// direction; if output power rose, keep going, otherwise reverse.
type PerturbObserve struct {
	dir       int
	lastPower float64
	started   bool
}

// Name identifies the algorithm.
func (*PerturbObserve) Name() string { return "P&O" }

// Reset clears the climb state.
func (p *PerturbObserve) Reset() { *p = PerturbObserve{} }

// Step perturbs the transfer ratio once.
func (p *PerturbObserve) Step(c *power.Circuit, cv *pv.Curve, rLoad float64) {
	op := c.Operate(cv, rLoad)
	if !p.started {
		p.started = true
		p.dir = 1
		p.lastPower = op.PLoad
		c.Conv.Step(p.dir)
		return
	}
	if op.PLoad < p.lastPower {
		p.dir = -p.dir
	}
	p.lastPower = op.PLoad
	if !c.Conv.Step(p.dir) {
		// Railed: bounce off the limit.
		p.dir = -p.dir
		c.Conv.Step(p.dir)
	}
}

// IncCond is incremental conductance: at the MPP dP/dV = 0, equivalently
// dI/dV = −I/V on the panel side. The sign of dI/dV + I/V picks the tuning
// direction without the oscillation P&O suffers at steady state.
type IncCond struct {
	lastV, lastI float64
	started      bool
	// Tol is the conductance deadband (relative to the instantaneous
	// conductance I/V) within which the tracker holds still. It must cover
	// the curvature seen across one discrete Δk step; defaults to 0.25.
	Tol float64
}

// Name identifies the algorithm.
func (*IncCond) Name() string { return "IncCond" }

// Reset clears the differentiation state.
func (ic *IncCond) Reset() { *ic = IncCond{Tol: ic.Tol} }

// Step compares incremental and instantaneous conductance and nudges k.
func (ic *IncCond) Step(c *power.Circuit, cv *pv.Curve, rLoad float64) {
	tol := ic.Tol
	if tol <= 0 {
		tol = 0.25
	}
	op := c.Operate(cv, rLoad)
	v, i := op.VPanel, op.IPanel
	if !ic.started || v <= 0 {
		ic.started = true
		ic.lastV, ic.lastI = v, i
		c.Conv.Step(1) // kick to create a dV
		return
	}
	dv, di := v-ic.lastV, i-ic.lastI
	ic.lastV, ic.lastI = v, i
	if math.Abs(dv) < 1e-6 {
		// No voltage motion. dI ≠ 0 means the irradiance changed under a
		// still converter: move with it. dI = 0 means settled: hold — this
		// is IncCond's advantage over P&O's perpetual oscillation.
		const diTol = 0.02
		switch {
		case di > diTol*i:
			c.Conv.Step(1)
		case di < -diTol*i:
			c.Conv.Step(-1)
		}
		return
	}
	g := di/dv + i/v // >0 left of MPP, <0 right of MPP
	switch {
	case g > tol*i/v:
		c.Conv.Step(1) // move panel voltage up
	case g < -tol*i/v:
		c.Conv.Step(-1)
	}
}

// FractionalVoc is the constant-voltage method: the MPP voltage of a
// silicon module stays near a fixed fraction of its open-circuit voltage
// (≈0.76 for the BP3180N), so the tracker periodically samples Voc (by
// momentarily opening the load) and servos the panel to K·Voc.
type FractionalVoc struct {
	// K is the Vmpp/Voc fraction; defaults to 0.76.
	K float64
	// SamplePeriod is how many Step calls between Voc samples; defaults
	// to 30.
	SamplePeriod int

	steps  int
	target float64
}

// Name identifies the algorithm.
func (*FractionalVoc) Name() string { return "FracVoc" }

// Reset clears the sampling state.
func (f *FractionalVoc) Reset() { f.steps, f.target = 0, 0 }

// Step refreshes the Voc sample when due and servos the panel voltage
// toward the stored target.
func (f *FractionalVoc) Step(c *power.Circuit, cv *pv.Curve, rLoad float64) {
	k := f.K
	if k <= 0 {
		k = 0.76
	}
	period := f.SamplePeriod
	if period <= 0 {
		period = 30
	}
	if f.steps%period == 0 {
		// Momentarily open the load: Voc appears at the panel terminals.
		f.target = k * cv.OpenCircuitVoltage()
	}
	f.steps++
	if f.target <= 0 {
		return
	}
	op := c.Operate(cv, rLoad)
	switch {
	case op.VPanel < f.target*0.995:
		c.Conv.Step(1)
	case op.VPanel > f.target*1.005:
		c.Conv.Step(-1)
	}
}

// All returns one instance of every classical algorithm.
func All() []Algorithm {
	return []Algorithm{&PerturbObserve{}, &IncCond{}, &FractionalVoc{}}
}
