package pv

// Generator is the common read interface of PV modules and arrays: anything
// with an I-V characteristic and a maximum power point. The SolarCore
// controller and the operating-point solver are written against this
// interface, so a single module, a series string, or a full array can power
// the load interchangeably.
type Generator interface {
	// Current returns output current (A) at terminal voltage v (V) under env.
	//
	// unit: v=V, return=A
	Current(env Env, v float64) float64
	// Power returns output power (W) at terminal voltage v under env.
	//
	// unit: v=V, return=W
	Power(env Env, v float64) float64
	// OpenCircuitVoltage returns Voc (V) under env.
	//
	// unit: V
	OpenCircuitVoltage(env Env) float64
	// MPP returns the maximum power point under env.
	MPP(env Env) MPP
	// ResistiveOperating returns the terminal voltage and current where the
	// I-V curve intersects a resistive load line I = V/R. An open load
	// (r = +Inf) sits at (Voc, 0) with Voc exactly OpenCircuitVoltage, and
	// a dark generator (Voc = 0) returns (0, 0) for every r, so callers
	// need no guards of their own.
	//
	// unit: r=Ω, v=V, i=A
	ResistiveOperating(env Env, r float64) (v, i float64)
}

var (
	_ Generator = (*Module)(nil)
	_ Generator = (*Array)(nil)
)

// Array is a series-parallel interconnection of identical modules under
// uniform irradiance: Series modules per string, Parallel strings. Voltages
// scale with Series, currents with Parallel.
type Array struct {
	Module   *Module
	Series   int
	Parallel int
}

// NewArray builds an Array of series×parallel copies of the module described
// by p. Both counts must be at least 1; values below 1 are raised to 1.
func NewArray(p ModuleParams, series, parallel int) *Array {
	if series < 1 {
		series = 1
	}
	if parallel < 1 {
		parallel = 1
	}
	return &Array{Module: NewModule(p), Series: series, Parallel: parallel}
}

// Current returns the array output current at terminal voltage v under env.
//
// unit: v=V, return=A
func (a *Array) Current(env Env, v float64) float64 {
	return float64(a.Parallel) * a.Module.Current(env, v/float64(a.Series))
}

// Power returns the array output power at terminal voltage v under env.
//
// unit: v=V, return=W
func (a *Array) Power(env Env, v float64) float64 {
	if v <= 0 {
		return 0
	}
	return v * a.Current(env, v)
}

// OpenCircuitVoltage returns the array Voc under env.
//
// unit: V
func (a *Array) OpenCircuitVoltage(env Env) float64 {
	return float64(a.Series) * a.Module.OpenCircuitVoltage(env)
}

// ShortCircuitCurrent returns the array Isc under env.
//
// unit: A
func (a *Array) ShortCircuitCurrent(env Env) float64 {
	return float64(a.Parallel) * a.Module.ShortCircuitCurrent(env)
}

// ResistiveOperating returns the array-level resistive operating point. A
// load R at the array terminals presents each module with the resistance
// R·Parallel/Series (the string divides voltage, the bank divides current).
//
// unit: r=Ω, v=V, i=A
func (a *Array) ResistiveOperating(env Env, r float64) (v, i float64) {
	rm := r * float64(a.Parallel) / float64(a.Series)
	mv, mi := a.Module.ResistiveOperating(env, rm)
	return mv * float64(a.Series), mi * float64(a.Parallel)
}

// MPP returns the array maximum power point under env, scaled from the
// module MPP (exact under the uniform-irradiance assumption).
func (a *Array) MPP(env Env) MPP {
	m := a.Module.MPP(env)
	return MPP{
		V: m.V * float64(a.Series),
		I: m.I * float64(a.Parallel),
		P: m.P * float64(a.Series) * float64(a.Parallel),
	}
}
