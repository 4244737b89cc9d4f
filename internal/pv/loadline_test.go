package pv

import (
	"fmt"
	"math"
	"testing"

	"solarcore/internal/mathx"
)

// bisectModuleV is the full-precision reference for one module's
// load-line voltage on the curve c at a module-level resistance r: 200
// bisection steps of h(V) = Iph − I0·(exp(V·(1 + Rs/r)/NsVt) − 1) − V/r
// on [0, Voc], which stop only at the resolution of float64.
func bisectModuleV(t *testing.T, c *Curve, r float64) float64 {
	t.Helper()
	k := (1 + c.rs/r) / c.vt
	h := func(v float64) float64 { return c.iph - c.i0*math.Expm1(v*k) - v/r }
	v, err := mathx.Bisect(h, 0, c.voc, 0)
	if err != nil {
		t.Fatalf("reference bisection at r=%v: %v", r, err)
	}
	return v
}

// loadLineBound is how far, relative to Voc, the closed-form load-line
// solve may sit from the bracketed Newton solve it replaced, whose stop
// is absolute at Voc·1e-10. The full-precision bound is 1e-13.
const loadLineBound = 1e-9

// loadGrid returns n resistances spaced evenly in log10 from 1e-4 to
// 1e7 Ω: from a near short to an open load.
func loadGrid(n int) []float64 {
	rs := make([]float64, n)
	for k := range rs {
		rs[k] = math.Pow(10, -4+11*float64(k)/float64(n-1))
	}
	return rs
}

// TestLoadLineMatchesOracles holds the closed-form load-line solve to
// two oracles over a (G, T, r) grid, for a module, a 3×2 array and the
// string-cut current scales 0.5 and 0.25: the bracketed Newton solve it
// replaced (refModule, refArray) within loadLineBound·Voc, and a full-precision
// bisection within 1e-13·Voc. The grid runs from 1 W/m² to 1200 W/m²,
// −10 °C to 75 °C, and r from 1e-4 Ω to 1e7 Ω (the open-load end, where
// I ≪ Iph). The edge loads r = +Inf, r ≤ 0 and NaN, and a dark env,
// return exactly what the old solve returned.
func TestLoadLineMatchesOracles(t *testing.T) {
	arr := NewArray(BP3180N(), 3, 2)
	gens := []struct {
		name             string
		gen              Generator
		ref              solver
		series, parallel float64
	}{
		{"Module", bp(), refModule{bp()}, 1, 1},
		{"Array3x2", arr, refArray{arr}, 3, 2},
	}
	loads := loadGrid(111)
	var worstOld, worstRef float64
	var where string
	for _, g := range gens {
		for _, scale := range []float64{1, 0.5, 0.25} {
			for _, irr := range []float64{1, 5, 20, 100, 300, 600, 800, 1000, 1200} {
				for _, temp := range []float64{-10, 0, 25, 50, 75} {
					env := Env{Irradiance: irr, CellTemp: temp}
					ref := refScaled{g.ref, scale}
					c := g.gen.At(env)
					c.ScaleCurrent(scale)
					voc := c.OpenCircuitVoltage()
					mod := bp().At(env)
					for _, r := range loads {
						v, _ := c.ResistiveOperating(r)
						wv, _ := ref.ResistiveOperating(env, r)
						bv := g.series * bisectModuleV(t, &mod, r*scale*g.parallel/g.series)
						dOld, dRef := math.Abs(v-wv)/voc, math.Abs(v-bv)/voc
						if dOld > worstOld {
							worstOld = dOld
						}
						if dRef > worstRef {
							worstRef, where = dRef, fmt.Sprintf("%s G=%v T=%v s=%v r=%v", g.name, irr, temp, scale, r)
						}
						if dOld > loadLineBound || dRef > 1e-13 {
							t.Fatalf("%s G=%v T=%v scale %v r=%v: V %v, Newton %v (|ΔV|/Voc %.2g), bisection %v (%.2g)",
								g.name, irr, temp, scale, r, v, wv, dOld, bv, dRef)
						}
					}
					for _, r := range []float64{math.Inf(1), 0, -3, math.NaN()} {
						v, i := c.ResistiveOperating(r)
						if wv, wi := ref.ResistiveOperating(env, r); !same(v, wv) || !same(i, wi) {
							t.Fatalf("%s G=%v T=%v scale %v r=%v: (%v, %v), want (%v, %v)", g.name, irr, temp, scale, r, v, i, wv, wi)
						}
					}
				}
			}
		}
		dark := g.gen.At(Env{Irradiance: 0, CellTemp: 25})
		for _, r := range append([]float64{math.Inf(1), 0, math.NaN()}, loads...) {
			if v, i := dark.ResistiveOperating(r); v != 0 || i != 0 {
				t.Fatalf("%s dark, r=%v: (%v, %v), want (0, 0)", g.name, r, v, i)
			}
		}
	}
	t.Logf("worst |ΔV|/Voc: %.2g against NewtonBisect, %.2g against bisection (%s)", worstOld, worstRef, where)
}

// TestLogLambertW holds the log-domain Lambert W to known roots: for w
// from 1e-300 to 1e9, L = w + ln w must give back ln w, within the
// rounding L itself carries. W(e) = 1 exactly, and below the smallest
// float64 w the answer is L.
func TestLogLambertW(t *testing.T) {
	for _, w := range []float64{1e-300, 1e-100, 1e-17, 1e-9, 1e-3, 0.1, 0.5, 1, 1 + 1e-9, 2, 20, 1e3, 1e5, 1e7, 1e9} {
		lw := math.Log(w)
		L := w + lw
		tol := 1e-15 * math.Max(math.Max(1, math.Abs(lw)), math.Abs(L)/(1+w))
		if got := logLambertW(L); math.Abs(got-lw) > tol {
			t.Errorf("w=%v: ln w %v, want %v (off by %.2g, bound %.2g)", w, got, lw, got-lw, tol)
		}
	}
	if lw := logLambertW(1); lw != 0 {
		t.Errorf("ln W(e) = %v, want 0", lw)
	}
	if lw := logLambertW(-800); lw != -800 {
		t.Errorf("ln W(e^-800) = %v, want -800", lw)
	}
}
