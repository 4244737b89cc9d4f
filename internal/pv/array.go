package pv

// Generator is the common read interface of PV modules and arrays:
// anything with an I-V characteristic. The SolarCore controller and the
// operating-point solver are written against the sampled Curve, so a
// single module, a series string, or a full array can power the load
// interchangeably.
type Generator interface {
	// At returns the characteristic under env. The curve is a value the
	// caller owns; At keeps no state, so concurrent callers may share one
	// generator.
	At(env Env) Curve
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

// At samples the array's curve under env: the module's, with voltages
// scaled by Series and currents by Parallel.
func (a *Array) At(env Env) Curve {
	c := a.Module.At(env)
	c.series, c.parallel = float64(a.Series), float64(a.Parallel)
	return c
}

// MPP returns the array maximum power point under env, for a caller that
// reads one value per environment: At(env).MPP().
func (a *Array) MPP(env Env) MPP {
	c := a.At(env)
	return c.MPP()
}
