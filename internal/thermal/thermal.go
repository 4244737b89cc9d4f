// Package thermal adds a lumped RC die-temperature model per core and a
// throttle governor, connecting SolarCore's power allocation to the
// thermal constraints of the paper's related work (Lee & Kim's thermal-
// constrained DVFS+PCPG, reference [35]). Each core is one RC node:
//
//	T(t+dt) = Tamb + (T(t) − Tamb)·e^(−dt/τ) + P·R·(1 − e^(−dt/τ)),
//
// with R the junction-to-ambient resistance and τ = R·C the time constant.
// The governor caps any core crossing TMax down one operating point per
// control step until it cools below the hysteresis band.
package thermal

import (
	"fmt"
	"math"

	"solarcore/internal/mcore"
)

// Config parameterizes the per-core RC model.
type Config struct {
	// RjaCPerW is the junction-to-ambient thermal resistance (°C/W).
	RjaCPerW float64
	// TauMin is the thermal time constant in minutes.
	TauMin float64
	// TMaxC is the throttle trip point, °C; the core re-arms once it has
	// cooled THystC degrees °C below the trip point.
	TMaxC float64 // °C
	// THystC is the re-arm hysteresis width below the trip point: a
	// temperature difference in K, not an absolute reading.
	THystC float64
}

// DefaultConfig returns 90 nm server-class values: ~1.8 °C/W to ambient,
// a 0.15-minute die+spreader time constant, a 95 °C trip point with 8 °C
// of hysteresis.
func DefaultConfig() Config {
	return Config{RjaCPerW: 1.8, TauMin: 0.15, TMaxC: 95, THystC: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.RjaCPerW <= 0 || c.TauMin <= 0 {
		return fmt.Errorf("thermal: resistance and time constant must be positive")
	}
	if c.TMaxC <= 0 || c.THystC < 0 || c.TMaxC-c.THystC <= 0 {
		return fmt.Errorf("thermal: invalid trip point / hysteresis")
	}
	return nil
}

// Model tracks per-core temperatures over a chip.
type Model struct {
	cfg       Config
	chip      *mcore.Chip
	tempC     []float64 // unit: °C
	throttled []bool
	events    int
	peakC     float64 // unit: °C
}

// NewModel builds a model with every core at the given ambient.
//
// unit: ambientC=°C
func NewModel(chip *mcore.Chip, cfg Config, ambientC float64) (*Model, error) {
	if chip == nil {
		return nil, fmt.Errorf("thermal: chip required")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:       cfg,
		chip:      chip,
		tempC:     make([]float64, chip.NumCores()),
		throttled: make([]bool, chip.NumCores()),
	}
	for i := range m.tempC {
		m.tempC[i] = ambientC
	}
	m.peakC = ambientC
	return m, nil
}

// Temp returns a core's current die temperature (°C).
//
// unit: °C
func (m *Model) Temp(core int) float64 { return m.tempC[core] }

// MaxTemp returns the hottest core's temperature.
//
// unit: °C
func (m *Model) MaxTemp() float64 {
	max := math.Inf(-1)
	for _, t := range m.tempC {
		if t > max {
			max = t
		}
	}
	return max
}

// ThrottleEvents counts governor interventions so far.
func (m *Model) ThrottleEvents() int { return m.events }

// Peak returns the hottest temperature any core has reached since the
// model was built (the day's thermal high-water mark).
//
// unit: °C
func (m *Model) Peak() float64 { return m.peakC }

// SteadyState returns the equilibrium temperature for a power level at an
// ambient: Tamb + P·Rja.
//
// unit: powerW=W, ambientC=°C, return=°C
func (m *Model) SteadyState(powerW, ambientC float64) float64 {
	return ambientC + powerW*m.cfg.RjaCPerW
}

// Advance integrates every core's temperature over dtMin minutes at the
// chip's present power, then applies the throttle governor: any core over
// TMax is stepped down one operating point (one intervention per call);
// a throttled core re-arms below TMax − THyst.
//
// unit: dtMin=min, ambientC=°C
func (m *Model) Advance(dtMin, ambientC float64) {
	decay := math.Exp(-dtMin / m.cfg.TauMin)
	for i := range m.tempC {
		target := m.SteadyState(m.chip.CorePower(i), ambientC)
		m.tempC[i] = target + (m.tempC[i]-target)*decay
		if m.tempC[i] > m.peakC {
			m.peakC = m.tempC[i]
		}
	}
	for i := range m.tempC {
		switch {
		case m.tempC[i] > m.cfg.TMaxC && m.chip.Level(i) != mcore.Gated:
			// Emergency clamp: as hardware governors do, drop immediately
			// to an operating point whose steady state is sustainable, not
			// one notch per tick — the die is already over the trip point.
			for m.chip.Level(i) != mcore.Gated &&
				m.SteadyState(m.chip.CorePower(i), ambientC) > m.cfg.TMaxC-m.cfg.THystC/2 {
				if !m.chip.StepDown(i) {
					break
				}
				m.events++
				m.throttled[i] = true
			}
		case m.throttled[i] && m.tempC[i] < m.cfg.TMaxC-m.cfg.THystC:
			m.throttled[i] = false
		}
	}
}

// Throttled reports whether a core is currently held down by the governor.
func (m *Model) Throttled(core int) bool { return m.throttled[core] }
