// Package power models the power-delivery substrate between the PV array
// and the multi-core load (Figure 8): the tunable DC/DC matching converter
// whose transfer ratio k the SolarCore controller perturbs, the I/V sensing
// at the load rail, the automatic transfer switch to the utility backup,
// and the battery-equipped baseline systems with their de-rating factors
// (Table 3).
package power

import "fmt"

// Converter is the power-conservative matching network of Figure 8: a
// PWM-style DC/DC stage with tunable transfer ratio k relating panel-side
// and load-side quantities by Vout = Vin/k, Iout = k·Iin (Section 2.3),
// with a fixed conversion efficiency applied to the power flow.
type Converter struct {
	K          float64 // current transfer ratio (dimensionless)
	KMin, KMax float64 // ratio tuning range (dimensionless)
	DeltaK     float64 // Δk perturbation step used by MPP tracking, ratio units
	Efficiency float64 // power conversion efficiency, fraction in (0, 1]
	// Locked jams the transfer ratio: Step and SetRatio become no-ops
	// reporting no change. The fault-injection layer (internal/fault)
	// sets it over a stuck-ratio fault window; the tracking controller
	// observes exactly what real hardware would — a knob that stops
	// responding.
	Locked bool
}

// NewConverter returns a converter sized for stepping a ~25-45 V panel down
// to the 12 V processor rail: k ∈ [1, 6], Δk = 0.02, 96 % efficient.
func NewConverter() *Converter {
	return &Converter{K: 3.0, KMin: 1.0, KMax: 6.0, DeltaK: 0.02, Efficiency: 0.96}
}

// Validate reports configuration errors.
func (c *Converter) Validate() error {
	if c.KMin <= 0 || c.KMax < c.KMin {
		return fmt.Errorf("power: converter range [%v,%v] invalid", c.KMin, c.KMax)
	}
	if c.K < c.KMin || c.K > c.KMax {
		return fmt.Errorf("power: converter ratio %v outside [%v,%v]", c.K, c.KMin, c.KMax)
	}
	if c.DeltaK <= 0 {
		return fmt.Errorf("power: converter Δk must be positive")
	}
	if c.Efficiency <= 0 || c.Efficiency > 1 {
		return fmt.Errorf("power: converter efficiency %v outside (0,1]", c.Efficiency)
	}
	return nil
}

// LoadVoltage returns the load-side voltage for a panel-side voltage.
//
// unit: vPanel=V, return=V
func (c *Converter) LoadVoltage(vPanel float64) float64 { return vPanel / c.K }

// PanelVoltage returns the panel-side voltage for a load-side voltage.
//
// unit: vLoad=V, return=V
func (c *Converter) PanelVoltage(vLoad float64) float64 { return vLoad * c.K }

// LoadCurrent returns the load-side current for a panel-side current, with
// the conversion loss charged to the current path so that power is
// conserved up to Efficiency.
//
// unit: iPanel=A, return=A
func (c *Converter) LoadCurrent(iPanel float64) float64 {
	return c.K * iPanel * c.Efficiency
}

// Step adjusts k by n·Δk (n may be negative), clamping to the tuning range.
// It reports whether k actually changed (always false while Locked).
func (c *Converter) Step(n int) bool {
	if c.Locked {
		return false
	}
	next := c.K + float64(n)*c.DeltaK
	if next < c.KMin {
		next = c.KMin
	}
	if next > c.KMax {
		next = c.KMax
	}
	changed := next != c.K
	c.K = next
	return changed
}

// SetRatio sets k directly, clamped to the tuning range; a no-op while
// Locked.
//
// unit: k=ratio
func (c *Converter) SetRatio(k float64) {
	if c.Locked {
		return
	}
	if k < c.KMin {
		k = c.KMin
	}
	if k > c.KMax {
		k = c.KMax
	}
	c.K = k
}
