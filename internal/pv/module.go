package pv

import "math"

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

// At samples the module's curve under env: Iph, I0 and the thermal
// voltage, and Voc, which at I = 0 has the closed form NsVt·ln(Iph/I0 + 1)
// because the series resistance drops out.
func (m *Module) At(env Env) Curve {
	iph := m.photocurrent(env)
	i0 := m.saturationCurrent(env)
	vt := m.P.thermalVoltage(env.CellTemp)
	voc := 0.0
	if iph > 0 {
		voc = vt * math.Log(iph/i0+1)
	}
	return Curve{iph: iph, i0: i0, vt: vt, voc: voc, rs: m.P.SeriesR, series: 1, parallel: 1, scale: 1}
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

// MPP is a maximum power point: the voltage, current and power at which the
// generator output is maximal for a given environment.
type MPP struct {
	V float64 // MPP voltage, V
	I float64 // MPP current, A
	P float64 // MPP power, W
}
