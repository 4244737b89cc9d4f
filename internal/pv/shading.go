package pv

import (
	"math"

	"solarcore/internal/mathx"
)

// ShadedString models a series string of identical modules under
// non-uniform irradiance, each protected by a bypass diode — the
// real-world condition the paper's uniform-irradiance assumption sets
// aside. When the common string current exceeds what a shaded module can
// carry, its bypass diode conducts and the module contributes only the
// diode's forward drop, which is what folds the familiar single-knee P-V
// curve into multiple local maxima.
//
// The env passed to the Generator methods is the unshaded baseline; each
// module sees env.Irradiance scaled by its entry in Scales.
type ShadedString struct {
	Module      *Module
	Scales      []float64 // per-module irradiance multipliers in (0, 1]
	BypassDropV float64   // conducting bypass diode drop (default 0.5 V)
}

var _ Generator = (*ShadedString)(nil)

// At returns the string's curve under env, solved by the string's own
// bypass-aware methods.
func (s *ShadedString) At(env Env) Curve { return Curve{own: s, env: env, scale: 1} }

// NewShadedString builds a string of len(scales) modules of the given
// parameters with the per-module irradiance scales.
func NewShadedString(p ModuleParams, scales []float64) *ShadedString {
	return &ShadedString{Module: NewModule(p), Scales: scales, BypassDropV: 0.5}
}

// PartiallyShadedModule models shading WITHIN one physical module: real
// modules (the BP3180N included) wire a bypass diode across each group of
// ~24 cells, so a shadow over one group folds even a single module's P-V
// curve into multiple maxima. The module is split into len(groupScales)
// equal bypass groups, each scaled by its entry.
func PartiallyShadedModule(p ModuleParams, groupScales []float64) *ShadedString {
	n := len(groupScales)
	if n < 1 {
		n = 1
		groupScales = []float64{1}
	}
	sub := p
	sub.Name = p.Name + "-group"
	sub.CellsInSeries = p.CellsInSeries / n
	sub.VocRef = p.VocRef / float64(n)
	sub.SeriesR = p.SeriesR / float64(n)
	return NewShadedString(sub, groupScales)
}

// moduleEnv returns the environment seen by module m.
func (s *ShadedString) moduleEnv(env Env, m int) Env {
	scale := s.Scales[m]
	if scale < 0 {
		scale = 0
	}
	return Env{Irradiance: env.Irradiance * scale, CellTemp: env.CellTemp}
}

// stringVoltage returns the string terminal voltage at common current i:
// the sum of per-module voltages, with bypassed modules contributing the
// negative diode drop. It is strictly decreasing in i.
//
// unit: i=A, return=V
func (s *ShadedString) stringVoltage(env Env, i float64) float64 {
	sum := 0.0
	for m := range s.Scales {
		if v, ok := s.Module.VoltageAt(s.moduleEnv(env, m), i); ok {
			sum += v
		} else {
			sum -= s.BypassDropV
		}
	}
	return sum
}

// maxCurrent returns the largest photocurrent in the string — the upper
// bound of the string current.
//
// unit: A
func (s *ShadedString) maxCurrent(env Env) float64 {
	imax := 0.0
	for m := range s.Scales {
		c := s.Module.At(s.moduleEnv(env, m))
		if isc := c.ShortCircuitCurrent(); isc > imax {
			imax = isc
		}
	}
	return imax
}

// OpenCircuitVoltage returns the string Voc: the sum of module Vocs (no
// bypass conducts at zero current).
//
// unit: V
func (s *ShadedString) OpenCircuitVoltage(env Env) float64 {
	sum := 0.0
	for m := range s.Scales {
		c := s.Module.At(s.moduleEnv(env, m))
		sum += c.OpenCircuitVoltage()
	}
	return sum
}

// Current returns the string current at terminal voltage v, solving the
// monotone stringVoltage relation by bisection.
//
// unit: v=V, return=A
func (s *ShadedString) Current(env Env, v float64) float64 {
	imax := s.maxCurrent(env)
	if imax <= 0 {
		return 0
	}
	if v >= s.OpenCircuitVoltage(env) {
		return 0
	}
	// stringVoltage is decreasing in i: bracket [0, imax].
	lo, hi := 0.0, imax
	if s.stringVoltage(env, hi) > v {
		return hi // even at max photocurrent the string sits above v
	}
	for iter := 0; iter < 80; iter++ {
		mid := 0.5 * (lo + hi)
		if s.stringVoltage(env, mid) > v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// Power returns the string output power at terminal voltage v.
//
// unit: v=V, return=W
func (s *ShadedString) Power(env Env, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * s.Current(env, v)
}

// ShortCircuitCurrent returns the string current at zero terminal voltage.
//
// unit: A
func (s *ShadedString) ShortCircuitCurrent(env Env) float64 {
	return s.Current(env, 0)
}

// ResistiveOperating returns the intersection of the string characteristic
// with the load line I = V/R, which is unique because stringVoltage is
// monotone in the current.
//
// unit: r=Ω, v=V, i=A
func (s *ShadedString) ResistiveOperating(env Env, r float64) (v, i float64) {
	imax := s.maxCurrent(env)
	if imax <= 0 {
		return 0, 0
	}
	if math.IsInf(r, 1) {
		return s.OpenCircuitVoltage(env), 0
	}
	if r <= 0 {
		return 0, s.ShortCircuitCurrent(env)
	}
	// g(i) = V(i) − i·R is strictly decreasing; bracket [0, imax].
	lo, hi := 0.0, imax
	if s.stringVoltage(env, hi)-hi*r > 0 {
		return s.stringVoltage(env, hi), hi
	}
	for iter := 0; iter < 80; iter++ {
		mid := 0.5 * (lo + hi)
		if s.stringVoltage(env, mid)-mid*r > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	i = 0.5 * (lo + hi)
	return i * r, i
}

// MPP returns the GLOBAL maximum power point, found by a coarse voltage
// scan (fine enough to see every bypass knee) refined by golden-section
// search around the best bracket — the "global scan" an MPPT must perform
// under partial shading.
func (s *ShadedString) MPP(env Env) MPP {
	voc := s.OpenCircuitVoltage(env)
	if voc <= 0 {
		return MPP{}
	}
	const grid = 160
	bestIdx, bestP := 0, 0.0
	for i := 0; i <= grid; i++ {
		v := voc * float64(i) / grid
		if p := s.Power(env, v); p > bestP {
			bestIdx, bestP = i, p
		}
	}
	lo := voc * float64(max(bestIdx-1, 0)) / grid
	hi := voc * float64(min(bestIdx+1, grid)) / grid
	v, p := mathx.GoldenMax(func(v float64) float64 { return s.Power(env, v) }, lo, hi, voc*1e-6)
	if p <= 0 {
		return MPP{}
	}
	return MPP{V: v, I: p / v, P: p}
}

// LocalMPPs returns every local maximum of the P-V curve (voltage-ordered),
// the structure that traps single-hill trackers under partial shading.
func (s *ShadedString) LocalMPPs(env Env) []MPP {
	voc := s.OpenCircuitVoltage(env)
	if voc <= 0 {
		return nil
	}
	const grid = 400
	p := make([]float64, grid+1)
	for i := 0; i <= grid; i++ {
		p[i] = s.Power(env, voc*float64(i)/grid)
	}
	// One closure for every golden-section refinement: allocating it
	// inside the loop would cost a closure per local maximum
	// (escapehint), and the objective is iteration-independent.
	power := func(v float64) float64 { return s.Power(env, v) }
	var out []MPP
	for i := 1; i < grid; i++ {
		if p[i] > p[i-1] && p[i] >= p[i+1] && p[i] > 1e-9 {
			lo := voc * float64(i-1) / grid
			hi := voc * float64(i+1) / grid
			v, pw := mathx.GoldenMax(power, lo, hi, voc*1e-6)
			out = append(out, MPP{V: v, I: pw / v, P: pw})
		}
	}
	return out
}
