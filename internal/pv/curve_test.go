package pv

import (
	"fmt"
	"math"
	"testing"

	"solarcore/internal/mathx"
)

// at samples g under env and returns the curve to query.
func at(g Generator, env Env) *Curve {
	c := g.At(env)
	return &c
}

// The reference solvers below are the env-taking generator methods the
// sampled curve replaced, kept verbatim as the oracle the curve must
// equal bit for bit: refModule and refArray for the single-diode
// generators, refScaled for the string-disconnect wrapper the engine
// used to install around the day's generator.

type refModule struct{ m *Module }

func (r refModule) OpenCircuitVoltage(env Env) float64 {
	iph := r.m.photocurrent(env)
	if iph <= 0 {
		return 0
	}
	vt := r.m.P.thermalVoltage(env.CellTemp)
	return vt * math.Log(iph/r.m.saturationCurrent(env)+1)
}

func (r refModule) Current(env Env, v float64) float64 {
	m := r.m
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
	if err != nil || i < 0 {
		return 0
	}
	return i
}

func (r refModule) ResistiveOperating(env Env, rl float64) (v, i float64) {
	m := r.m
	voc := r.OpenCircuitVoltage(env)
	if voc <= 0 {
		return 0, 0
	}
	if math.IsInf(rl, 1) {
		return voc, 0
	}
	if rl <= 0 {
		return 0, r.Current(env, 0)
	}
	iph := m.photocurrent(env)
	i0 := m.saturationCurrent(env)
	vt := m.P.thermalVoltage(env.CellTemp)
	c := (1 + m.P.SeriesR/rl) / vt
	hdh := func(v float64) (float64, float64) {
		e := math.Expm1(v * c)
		return iph - i0*e - v/rl, -i0*(e+1)*c - 1/rl
	}
	v, err := mathx.NewtonBisect(hdh, 0, voc, voc*1e-10)
	if err != nil {
		return 0, 0
	}
	return v, v / rl
}

func (r refModule) MPP(env Env) MPP {
	m := r.m
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

type refArray struct{ a *Array }

func (r refArray) mod() refModule { return refModule{r.a.Module} }

func (r refArray) OpenCircuitVoltage(env Env) float64 {
	return float64(r.a.Series) * r.mod().OpenCircuitVoltage(env)
}

func (r refArray) Current(env Env, v float64) float64 {
	return float64(r.a.Parallel) * r.mod().Current(env, v/float64(r.a.Series))
}

func (r refArray) ResistiveOperating(env Env, rl float64) (v, i float64) {
	rm := rl * float64(r.a.Parallel) / float64(r.a.Series)
	mv, mi := r.mod().ResistiveOperating(env, rm)
	return mv * float64(r.a.Series), mi * float64(r.a.Parallel)
}

func (r refArray) MPP(env Env) MPP {
	m := r.mod().MPP(env)
	return MPP{V: m.V * float64(r.a.Series), I: m.I * float64(r.a.Parallel),
		P: m.P * float64(r.a.Series) * float64(r.a.Parallel)}
}

type refScaled struct {
	inner solver
	scale float64
}

func (g refScaled) Current(env Env, v float64) float64 { return g.scale * g.inner.Current(env, v) }

func (g refScaled) Power(env Env, v float64) float64 {
	if v <= 0 {
		return g.scale * 0
	}
	return g.scale * (v * g.inner.Current(env, v))
}

func (g refScaled) OpenCircuitVoltage(env Env) float64 { return g.inner.OpenCircuitVoltage(env) }

func (g refScaled) MPP(env Env) MPP {
	m := g.inner.MPP(env)
	return MPP{V: m.V, I: g.scale * m.I, P: g.scale * m.P}
}

func (g refScaled) ResistiveOperating(env Env, r float64) (v, i float64) {
	if math.IsInf(r, 1) {
		return g.inner.ResistiveOperating(env, r)
	}
	if g.scale <= 0 {
		return 0, 0
	}
	v, i = g.inner.ResistiveOperating(env, r*g.scale)
	return v, g.scale * i
}

// same reports whether two floats are the same bits.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCurveMatchesGeneratorSolvers holds every generator's sampled curve
// to the env-taking solvers it replaced, bit for bit, over a (G, T, r)
// grid reaching a dark env, r = +Inf, r ≤ 0 and a NaN load, under the
// string-disconnect scales 1, 0.5 and 0. The one exception is the
// closed-form load-line solve of Module and Array curves on a finite
// positive load, held to the old bracketed Newton within
// loadLineBound·Voc in V and in I·r (TestLoadLineMatchesOracles holds it
// to a full-precision bisection). Each load is solved twice in a row on
// one curve, so the load-line memo's answer is held to the solve as well.
func TestCurveMatchesGeneratorSolvers(t *testing.T) {
	arr := NewArray(BP3180N(), 3, 2)
	shaded := NewShadedString(BP3180N(), []float64{1, 0.3, 0.8})
	twoDiode := NewTwoDiodeModule(BP3180N())
	gens := []struct {
		name   string
		gen    Generator
		ref    solver
		closed bool // solves load lines in closed form
	}{
		{"Module", bp(), refModule{bp()}, true},
		{"Array", arr, refArray{arr}, true},
		{"Array1x1", NewArray(BP3180N(), 1, 1), refModule{bp()}, true},
		{"ShadedString", shaded, shaded, false},
		{"TwoDiodeModule", twoDiode, twoDiode, false},
	}
	loads := []float64{math.Inf(1), 0, -3, 1e-3, 0.5, 2, 7, 30, 250, 1e5, math.NaN()}
	for _, g := range gens {
		for _, irr := range []float64{0, -20, 40, 300, 800, 1000, 1150} {
			for _, temp := range []float64{-10, 25, 68} {
				env := Env{Irradiance: irr, CellTemp: temp}
				for _, scale := range []float64{1, 0.5, 0} {
					ref := refScaled{g.ref, scale}
					c := g.gen.At(env)
					c.ScaleCurrent(scale)
					where := func() string { return fmt.Sprintf("%s G=%v T=%v scale %v", g.name, irr, temp, scale) }
					if got, want := c.OpenCircuitVoltage(), ref.OpenCircuitVoltage(env); !same(got, want) {
						t.Fatalf("%s: Voc %v, want %v", where(), got, want)
					}
					if got, want := c.MPP(), ref.MPP(env); !same(got.V, want.V) || !same(got.I, want.I) || !same(got.P, want.P) {
						t.Fatalf("%s: MPP %+v, want %+v", where(), got, want)
					}
					voc := ref.OpenCircuitVoltage(env)
					for _, f := range []float64{-0.1, 0, 0.3, 0.8, 1, 1.1} {
						v := f * voc
						if got, want := c.Current(v), ref.Current(env, v); !same(got, want) {
							t.Fatalf("%s: Current(%v) %v, want %v", where(), v, got, want)
						}
						if got, want := c.Power(v), ref.Power(env, v); !same(got, want) {
							t.Fatalf("%s: Power(%v) %v, want %v", where(), v, got, want)
						}
					}
					for _, r := range loads {
						wv, wi := ref.ResistiveOperating(env, r)
						v, i := c.ResistiveOperating(r)
						if mv, mi := c.ResistiveOperating(r); !same(mv, v) || !same(mi, i) {
							t.Fatalf("%s, r=%v: memo answered (%v, %v), solved (%v, %v)", where(), r, mv, mi, v, i)
						}
						if g.closed && r > 0 && !math.IsInf(r, 1) {
							if math.Abs(v-wv) > loadLineBound*voc || math.Abs(i-wi)*r > loadLineBound*voc {
								t.Fatalf("%s, r=%v: (%v, %v), want (%v, %v) within %g·Voc", where(), r, v, i, wv, wi, loadLineBound)
							}
						} else if !same(v, wv) || !same(i, wi) {
							t.Fatalf("%s, r=%v: (%v, %v), want (%v, %v)", where(), r, v, i, wv, wi)
						}
					}
				}
			}
		}
	}
}

// TestScaledCurveEdgeLoads: a string-disconnect scale holds the open-load
// voltage at the unscaled Voc, and a dark curve stays at (0, 0), whatever
// the scale.
func TestScaledCurveEdgeLoads(t *testing.T) {
	m := bp()
	voc := at(m, STC).OpenCircuitVoltage()
	for _, scale := range []float64{0, 0.5, 1} {
		c := m.At(STC)
		c.ScaleCurrent(scale)
		if v, i := c.ResistiveOperating(math.Inf(1)); v != voc || i != 0 {
			t.Errorf("scale %v, open load: (%v, %v), want (%v, 0)", scale, v, i, voc)
		}
		d := m.At(Env{Irradiance: 0, CellTemp: 25})
		d.ScaleCurrent(scale)
		if v, i := d.ResistiveOperating(10); v != 0 || i != 0 {
			t.Errorf("scale %v, dark: (%v, %v), want (0, 0)", scale, v, i)
		}
	}
}

// TestScaleCurrentForgetsSolvedLoads: the memo answers only for the curve
// that solved the load, so a scale applied later re-solves: the answer is
// a fresh scaled curve's bit for bit, and the old solver's within
// loadLineBound·Voc.
func TestScaleCurrentForgetsSolvedLoads(t *testing.T) {
	c := bp().At(STC)
	c.ResistiveOperating(4)
	c.ScaleCurrent(0.5)
	v, i := c.ResistiveOperating(4)
	fresh := bp().At(STC)
	fresh.ScaleCurrent(0.5)
	if fv, fi := fresh.ResistiveOperating(4); !same(v, fv) || !same(i, fi) {
		t.Errorf("scaled solve (%v, %v), fresh scaled curve (%v, %v)", v, i, fv, fi)
	}
	voc := c.OpenCircuitVoltage()
	if wv, wi := (refScaled{refModule{bp()}, 0.5}).ResistiveOperating(STC, 4); math.Abs(v-wv) > loadLineBound*voc || math.Abs(i-wi)*4 > loadLineBound*voc {
		t.Errorf("scaled solve (%v, %v), want (%v, %v) within %g·Voc", v, i, wv, wi, loadLineBound)
	}
}

// TestLoadMemoRing: the memo keeps the last memoSize loads and forgets
// the oldest first.
func TestLoadMemoRing(t *testing.T) {
	var m loadMemo
	for k := 0; k < memoSize+2; k++ {
		m.put(uint64(k), float64(k), -float64(k))
	}
	for k := 0; k < memoSize+2; k++ {
		v, i, ok := m.get(uint64(k))
		if wantOK := k >= 2; ok != wantOK {
			t.Fatalf("key %d: ok %v, want %v", k, ok, wantOK)
		}
		if ok && (v != float64(k) || i != -float64(k)) {
			t.Errorf("key %d: (%v, %v)", k, v, i)
		}
	}
}
