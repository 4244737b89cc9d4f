// Package mathx provides the small numeric toolkit used throughout the
// simulator: scalar root finding, bounded maximization, and descriptive
// statistics. Everything is deterministic and allocation-free so the hot
// paths of the operating-point solver can call it per simulation step.
package mathx

import (
	"errors"
	"math"
)

// ErrNoBracket is returned when a root finder is given an interval whose
// endpoints do not bracket a sign change.
var ErrNoBracket = errors.New("mathx: interval does not bracket a root")

// ErrNoConverge is returned when an iterative method exhausts its iteration
// budget before meeting its tolerance.
var ErrNoConverge = errors.New("mathx: iteration did not converge")

// ErrNonFinite is returned when a solver is given a NaN or infinite bound,
// or when the objective evaluates to NaN at a probed point — continuing
// would either loop on NaN comparisons or return garbage.
var ErrNonFinite = errors.New("mathx: non-finite bound or objective value")

// ApproxEq reports whether a and b agree within tol, using the larger of
// an absolute and a relative criterion: |a−b| ≤ max(tol, tol·max(|a|,|b|)).
// It is the approved way to compare computed floating-point quantities
// (solarvet's floateq analyzer forbids raw ==/!= outside this package).
// NaN compares unequal to everything, including itself; equal infinities
// compare equal.
func ApproxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true // covers equal infinities and exact hits
	}
	d := math.Abs(a - b)
	if math.IsInf(d, 0) {
		return false // opposite infinities, or Inf vs finite
	}
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkBracket validates a solver interval and its endpoint samples:
// the bounds and tolerance must be finite, and the endpoint values must
// not be NaN (±Inf endpoint values are legal — they still carry a sign).
func checkBracket(lo, hi, tol, flo, fhi float64) error {
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || math.IsNaN(tol) {
		return ErrNonFinite
	}
	if math.IsNaN(flo) || math.IsNaN(fhi) {
		return ErrNonFinite
	}
	return nil
}

// Bisect finds x in [lo, hi] with f(x) == 0 using bisection. f(lo) and
// f(hi) must have opposite signs (either may be zero). The result is within
// tol of the true root. Non-finite bounds, a NaN tolerance, or a NaN
// objective value fail with ErrNonFinite.
func Bisect(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if err := checkBracket(lo, hi, tol, flo, fhi); err != nil {
		return 0, err
	}
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		fm := f(mid)
		if math.IsNaN(fm) {
			return 0, ErrNonFinite
		}
		if fm == 0 || hi-lo < tol {
			return mid, nil
		}
		if (fm > 0) == (flo > 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// NewtonBisect finds a root of f in [lo, hi] using Newton's method with the
// analytic derivative, falling back to bisection whenever a Newton step
// leaves the bracket or stalls. fdf returns f(x) and f'(x) together, so a
// caller whose two share a costly term (an exponential) computes it once.
// It keeps the bracketing invariant, so it is as robust as Bisect but
// converges quadratically near the root. Non-finite bounds, a NaN
// tolerance, or a NaN objective value fail with ErrNonFinite (a NaN
// derivative only forces a bisection fallback step).
func NewtonBisect(fdf func(float64) (f, df float64), lo, hi, tol float64) (float64, error) {
	flo, _ := fdf(lo)
	fhi, _ := fdf(hi)
	if err := checkBracket(lo, hi, tol, flo, fhi); err != nil {
		return 0, err
	}
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if (flo > 0) == (fhi > 0) {
		return 0, ErrNoBracket
	}
	x := 0.5 * (lo + hi)
	dxold := hi - lo
	for i := 0; i < 200; i++ {
		fx, d := fdf(x)
		if math.IsNaN(fx) {
			return 0, ErrNonFinite
		}
		if fx == 0 {
			return x, nil
		}
		// Shrink the bracket with the new sample.
		if (fx > 0) == (flo > 0) {
			lo, flo = x, fx
		} else {
			hi = x
		}
		if hi-lo < tol {
			return 0.5 * (lo + hi), nil
		}
		next := x - fx/d
		// Bisect when the Newton step leaves the bracket or is converging
		// slower than halving would (Numerical Recipes' rtsafe guard);
		// this keeps worst-case behaviour at bisection speed.
		var dx float64
		if d == 0 || math.IsNaN(next) || next <= lo || next >= hi ||
			math.Abs(2*fx) > math.Abs(dxold*d) {
			next = 0.5 * (lo + hi)
			dx = 0.5 * (hi - lo)
		} else {
			dx = math.Abs(next - x)
		}
		x, dxold = next, dx
	}
	return x, nil
}

// GoldenMax maximizes a unimodal function f on [lo, hi] by golden-section
// search and returns (argmax, max). The result is within tol of the true
// maximizer. For non-unimodal f it returns a local maximum.
//
// GoldenMax has no error return; its documented sentinel for bad input is
// (NaN, NaN): non-finite bounds or a NaN tolerance return it immediately,
// and a NaN objective value propagates into the returned maximum (the
// interval shrinks geometrically regardless of the comparison outcomes,
// so termination is unaffected).
func GoldenMax(f func(float64) float64, lo, hi, tol float64) (float64, float64) {
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || math.IsNaN(tol) {
		return math.NaN(), math.NaN()
	}
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		}
	}
	x := 0.5 * (a + b)
	return x, f(x)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Lerp linearly interpolates between a and b: t=0 gives a, t=1 gives b.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
