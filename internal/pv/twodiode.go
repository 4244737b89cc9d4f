package pv

import (
	"math"

	"solarcore/internal/mathx"
)

// TwoDiodeModule implements the higher-fidelity equivalent circuit the
// paper mentions and sets aside (Section 2.1: "a second non-ideal diode
// can be added in parallel to the current source"): the second diode, with
// ideality factor 2, models space-charge-region recombination that matters
// at low irradiance. At standard conditions the single-diode model is
// within a couple of percent, which is why the paper's "moderate
// complexity" choice is sound — the comparison test quantifies exactly
// that.
type TwoDiodeModule struct {
	*Module
	// I02Frac sets the second diode's saturation current as a multiple of
	// the first diode's (default 1000× — recombination currents are orders
	// of magnitude larger but suppressed by the n=2 exponent).
	I02Frac float64
}

// NewTwoDiodeModule wraps module parameters with the recombination diode.
func NewTwoDiodeModule(p ModuleParams) *TwoDiodeModule {
	return &TwoDiodeModule{Module: NewModule(p), I02Frac: 1000}
}

// At returns the two-diode curve under env, solved by the module's own
// methods.
func (m *TwoDiodeModule) At(env Env) Curve { return Curve{own: m, env: env, scale: 1} }

// i02 returns the recombination diode's saturation current under env.
//
// unit: A
func (m *TwoDiodeModule) i02(env Env) float64 {
	return m.I02Frac * m.saturationCurrent(env)
}

// Current solves the two-diode equation
//
//	I = Iph − I01·(e^(Vd/NsVt) − 1) − I02·(e^(Vd/(2·NsVt)) − 1),  Vd = V + I·Rs,
//
// by guarded Newton on I, clamped at zero (blocking diode).
//
// unit: v=V, return=A
func (m *TwoDiodeModule) Current(env Env, v float64) float64 {
	i, ok := m.rawCurrent(env, v)
	if !ok || i < 0 {
		return 0
	}
	return i
}

// rawCurrent is Current without the blocking-diode clamp, for the Voc
// solve which needs the curve's true zero crossing.
//
// unit: v=V, return=A
func (m *TwoDiodeModule) rawCurrent(env Env, v float64) (float64, bool) {
	iph := m.photocurrent(env)
	if iph <= 0 {
		return 0, false
	}
	i01 := m.saturationCurrent(env)
	i02 := m.i02(env)
	vt := m.P.thermalVoltage(env.CellTemp)
	rs := m.P.SeriesR

	fdf := func(i float64) (float64, float64) {
		vd := v + i*rs
		e1, e2 := math.Expm1(vd/vt), math.Expm1(vd/(2*vt))
		return iph - i01*e1 - i02*e2 - i, -i01*(e1+1)*rs/vt - i02*(e2+1)*rs/(2*vt) - 1
	}
	i, err := mathx.NewtonBisect(fdf, -iph-1, iph+1, 1e-12)
	if err != nil {
		return 0, false
	}
	return i, true
}

// OpenCircuitVoltage solves Current(V) = 0 for the two-diode curve (no
// closed form once the second diode participates).
//
// unit: V
func (m *TwoDiodeModule) OpenCircuitVoltage(env Env) float64 {
	if m.photocurrent(env) <= 0 {
		return 0
	}
	// The single-diode Voc upper-bounds the two-diode one (the extra diode
	// only sinks current); solve the unclamped curve's zero crossing.
	sd := m.Module.At(env)
	hi := sd.OpenCircuitVoltage()
	v, err := mathx.Bisect(func(v float64) float64 {
		i, _ := m.rawCurrent(env, v)
		return i
	}, 0, hi+1e-6, 1e-9)
	if err != nil {
		return hi
	}
	return v
}

// Power returns V·I(V) on the two-diode curve.
//
// unit: v=V, return=W
func (m *TwoDiodeModule) Power(env Env, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * m.Current(env, v)
}

// MPP finds the two-diode maximum power point.
func (m *TwoDiodeModule) MPP(env Env) MPP {
	voc := m.OpenCircuitVoltage(env)
	if voc <= 0 {
		return MPP{}
	}
	v, p := mathx.GoldenMax(func(v float64) float64 { return m.Power(env, v) }, 0, voc, voc*1e-7)
	if p <= 0 {
		return MPP{}
	}
	return MPP{V: v, I: p / v, P: p}
}

// ShortCircuitCurrent returns the current at zero terminal voltage.
//
// unit: A
func (m *TwoDiodeModule) ShortCircuitCurrent(env Env) float64 {
	return m.Current(env, 0)
}

// ResistiveOperating intersects the two-diode curve with a load line by
// bisection on voltage (the curve is monotone decreasing in current).
//
// unit: r=Ω, v=V, i=A
func (m *TwoDiodeModule) ResistiveOperating(env Env, r float64) (v, i float64) {
	voc := m.OpenCircuitVoltage(env)
	if voc <= 0 {
		return 0, 0
	}
	if math.IsInf(r, 1) {
		return voc, 0
	}
	if r <= 0 {
		return 0, m.ShortCircuitCurrent(env)
	}
	lo, hi := 0.0, voc
	for iter := 0; iter < 80; iter++ {
		mid := 0.5 * (lo + hi)
		if m.Current(env, mid)-mid/r > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	v = 0.5 * (lo + hi)
	return v, v / r
}

var _ Generator = (*TwoDiodeModule)(nil)
