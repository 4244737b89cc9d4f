package pv

import (
	"math"

	"solarcore/internal/mathx"
)

// Module is a PV module evaluated under arbitrary environments. It is
// stateless and safe for concurrent use.
type Module struct {
	P ModuleParams

	// Derived at construction.
	i0Ref float64 // diode saturation current at TRef, A
}

// NewModule builds a Module, deriving the reference saturation current from
// the STC open-circuit condition: Iph(STC) = I0ref·(exp(Voc/NsVt) − 1).
func NewModule(p ModuleParams) *Module {
	vt := p.thermalVoltage(TRef)
	i0 := p.IscRef / math.Expm1(p.VocRef/vt)
	return &Module{P: p, i0Ref: i0}
}

// photocurrent returns Iph under env: proportional to irradiance with a
// linear temperature coefficient.
//
// unit: A
func (m *Module) photocurrent(env Env) float64 {
	if env.Irradiance <= 0 {
		return 0
	}
	return (m.P.IscRef + m.P.Ki*(env.CellTemp-TRef)) * env.Irradiance / GRef
}

// saturationCurrent returns the diode reverse saturation current I0 at the
// env cell temperature: I0ref·(T/Tref)³·exp(qEg/(nk)·(1/Tref − 1/T)).
//
// unit: A
func (m *Module) saturationCurrent(env Env) float64 {
	t := kelvin(env.CellTemp)
	tr := kelvin(TRef)
	ratio := t / tr
	expo := q * m.P.BandgapEV / (m.P.IdealityN * kB) * (1/tr - 1/t)
	return m.i0Ref * ratio * ratio * ratio * math.Exp(expo)
}

// OpenCircuitVoltage returns Voc under env. At I = 0 the series resistance
// drops out, so Voc has the closed form NsVt·ln(Iph/I0 + 1).
//
// unit: V
func (m *Module) OpenCircuitVoltage(env Env) float64 {
	iph := m.photocurrent(env)
	if iph <= 0 {
		return 0
	}
	vt := m.P.thermalVoltage(env.CellTemp)
	return vt * math.Log(iph/m.saturationCurrent(env)+1)
}

// ShortCircuitCurrent returns Isc under env (terminal voltage zero).
//
// unit: A
func (m *Module) ShortCircuitCurrent(env Env) float64 {
	return m.Current(env, 0)
}

// Current returns the module output current at terminal voltage v under env,
// solving the implicit single-diode equation
//
//	I = Iph − I0·(exp((V + I·Rs)/(Ns·n·kT/q)) − 1).
//
// For v at or above the open-circuit voltage the result is clamped to 0: the
// blocking diode of a direct-coupled system prevents the module from sinking
// current.
//
// unit: v=V, return=A
func (m *Module) Current(env Env, v float64) float64 {
	iph := m.photocurrent(env)
	if iph <= 0 {
		return 0
	}
	i0 := m.saturationCurrent(env)
	vt := m.P.thermalVoltage(env.CellTemp)
	rs := m.P.SeriesR

	if rs == 0 {
		i := iph - i0*math.Expm1(v/vt)
		if i < 0 {
			return 0
		}
		return i
	}

	fdf := func(i float64) (float64, float64) {
		e := math.Expm1((v + i*rs) / vt)
		return iph - i0*e - i, -i0*(e+1)*rs/vt - 1
	}
	i, err := mathx.NewtonBisect(fdf, -iph-1, iph+1, 1e-12)
	if err != nil {
		// f is strictly decreasing; a failed bracket means v is far beyond
		// Voc where the module cannot source current.
		return 0
	}
	if i < 0 {
		return 0
	}
	return i
}

// VoltageAt inverts the I-V characteristic: the terminal voltage at which
// the module carries current i. The single-diode equation inverts in closed
// form, V = NsVt·ln((Iph − I)/I0 + 1) − I·Rs. ok is false when the module
// cannot source i at any forward voltage (i ≥ Iph + I0) — in a series
// string that is when its bypass diode must conduct.
//
// unit: i=A, v=V
func (m *Module) VoltageAt(env Env, i float64) (v float64, ok bool) {
	iph := m.photocurrent(env)
	i0 := m.saturationCurrent(env)
	if i < 0 || iph-i+i0 <= 0 {
		return 0, false
	}
	vt := m.P.thermalVoltage(env.CellTemp)
	v = vt*math.Log((iph-i)/i0+1) - i*m.P.SeriesR
	if v < 0 {
		return 0, false
	}
	return v, true
}

// Power returns the module output power V·I(V) at terminal voltage v.
//
// unit: v=V, return=W
func (m *Module) Power(env Env, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * m.Current(env, v)
}

// ResistiveOperating returns the operating point of the module loaded by a
// resistance r: the intersection of the I-V curve with the load line
// I = V/R. Substituting I = V/r into the single-diode equation collapses
// the nested solve into one scalar root find,
//
//	h(V) = Iph − I0·(exp(V·(1 + Rs/r)/NsVt) − 1) − V/r = 0,
//
// which is strictly decreasing and bracketed by [0, Voc], so the guarded
// Newton converges in a handful of iterations. This is the hot path of the
// circuit simulation.
//
// unit: r=Ω, v=V, i=A
func (m *Module) ResistiveOperating(env Env, r float64) (v, i float64) {
	voc := m.OpenCircuitVoltage(env)
	if voc <= 0 {
		return 0, 0
	}
	if math.IsInf(r, 1) {
		return voc, 0
	}
	if r <= 0 {
		return 0, m.Current(env, 0)
	}
	iph := m.photocurrent(env)
	i0 := m.saturationCurrent(env)
	vt := m.P.thermalVoltage(env.CellTemp)
	c := (1 + m.P.SeriesR/r) / vt
	hdh := func(v float64) (float64, float64) {
		e := math.Expm1(v * c)
		return iph - i0*e - v/r, -i0*(e+1)*c - 1/r
	}
	v, err := mathx.NewtonBisect(hdh, 0, voc, voc*1e-10)
	if err != nil {
		// h(0) = Iph > 0 and h(Voc) < 0, so a bracket failure can only mean
		// a degenerate panel; behave as a dark module.
		return 0, 0
	}
	return v, v / r
}

// MPP is a maximum power point: the voltage, current and power at which the
// generator output is maximal for a given environment.
type MPP struct {
	V float64 // MPP voltage, V
	I float64 // MPP current, A
	P float64 // MPP power, W
}

// MPP returns the maximum power point under env. In current space the
// single-diode curve inverts in closed form (VoltageAt), so the power
// P(I) = I·V(I) with V(I) = NsVt·ln((Iph − I + I0)/I0) − I·Rs is explicit
// and strictly concave on [0, Iph]: V is decreasing and concave. Its one
// stationary point is the root of
//
//	dP/dI = NsVt·ln(u/I0) − 2·I·Rs − I·NsVt/u,  u = Iph − I + I0,
//
// which is positive at 0 and negative at Iph, with the analytic slope
// d²P/dI² = −2·(NsVt/u + Rs) − I·NsVt/u². One guarded Newton solve finds
// it; no nested Current solve is needed.
func (m *Module) MPP(env Env) MPP {
	iph := m.photocurrent(env)
	if iph <= 0 {
		return MPP{}
	}
	i0 := m.saturationCurrent(env)
	a := m.P.thermalVoltage(env.CellTemp)
	rs := m.P.SeriesR
	fdf := func(i float64) (float64, float64) {
		u := iph - i + i0
		return a*math.Log(u/i0) - 2*i*rs - i*a/u, -2*(a/u+rs) - i*a/(u*u)
	}
	i, err := mathx.NewtonBisect(fdf, 0, iph, iph*1e-12)
	if err != nil {
		return MPP{}
	}
	v := a*math.Log((iph-i+i0)/i0) - i*rs
	return MPP{V: v, I: i, P: v * i}
}
