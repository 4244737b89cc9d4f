package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectLinear(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return 2*x - 3 }, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-1.5) > 1e-9 {
		t.Errorf("root = %v, want 1.5", x)
	}
}

func TestBisectEndpointRoots(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-9); err != nil || x != 0 {
		t.Errorf("lo endpoint root: got %v, %v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-9); err != nil || x != 0 {
		t.Errorf("hi endpoint root: got %v, %v", x, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err != ErrNoBracket {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestNewtonBisectCubic(t *testing.T) {
	fdf := func(x float64) (float64, float64) { return x*x*x - 8, 3 * x * x }
	x, err := NewtonBisect(fdf, 0, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2) > 1e-9 {
		t.Errorf("root = %v, want 2", x)
	}
}

func TestNewtonBisectMatchesBisect(t *testing.T) {
	// Property: on random monotone exponentials both solvers find the same root.
	prop := func(a, b uint8) bool {
		k := 0.1 + float64(a)/64 // growth rate
		c := 1 + float64(b)      // offset
		f := func(x float64) float64 { return math.Exp(k*x) - c }
		fdf := func(x float64) (float64, float64) {
			e := math.Exp(k * x)
			return e - c, k * e
		}
		want := math.Log(c) / k
		if want > 100 {
			return true // outside bracket, skip
		}
		x1, err1 := Bisect(f, -1, 101, 1e-10)
		x2, err2 := NewtonBisect(fdf, -1, 101, 1e-10)
		return err1 == nil && err2 == nil &&
			math.Abs(x1-want) < 1e-6 && math.Abs(x2-want) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenMaxParabola(t *testing.T) {
	x, fx := GoldenMax(func(x float64) float64 { return -(x - 3) * (x - 3) }, -10, 10, 1e-9)
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("argmax = %v, want 3", x)
	}
	if math.Abs(fx) > 1e-9 {
		t.Errorf("max = %v, want 0", fx)
	}
}

func TestGoldenMaxQuickParabolas(t *testing.T) {
	// Property: GoldenMax finds the vertex of any downward parabola inside
	// the search interval.
	prop := func(a int8) bool {
		c := float64(a) / 16
		x, _ := GoldenMax(func(x float64) float64 { return -(x - c) * (x - c) }, -20, 20, 1e-10)
		return math.Abs(x-c) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(2, 4, 0.5); got != 3 {
		t.Errorf("Lerp(2,4,0.5) = %v, want 3", got)
	}
	if got := Lerp(2, 4, 0); got != 2 {
		t.Errorf("Lerp(2,4,0) = %v, want 2", got)
	}
	if got := Lerp(2, 4, 1); got != 4 {
		t.Errorf("Lerp(2,4,1) = %v, want 4", got)
	}
}

func TestApproxEq(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1.0, 1.0, 1e-12, true},
		{1.0, 1.0 + 1e-13, 1e-12, true},
		{1.0, 1.1, 1e-3, false},
		{1e9, 1e9 * (1 + 1e-10), 1e-9, true}, // relative criterion
		{0, 1e-15, 1e-12, true},              // absolute criterion near zero
		{math.NaN(), math.NaN(), 1, false},
		{math.NaN(), 0, 1, false},
		{math.Inf(1), math.Inf(1), 1e-12, true},
		{math.Inf(1), math.Inf(-1), 1e-12, false},
		{math.Inf(1), 1e308, 1e-12, false},
	}
	for _, c := range cases {
		if got := ApproxEq(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEq(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

// Non-finite inputs must fail cleanly (error or documented sentinel),
// never loop or return garbage.

func TestBisectNonFinite(t *testing.T) {
	lin := func(x float64) float64 { return x }
	cases := []struct {
		name   string
		f      func(float64) float64
		lo, hi float64
		tol    float64
	}{
		{"nan lo", lin, math.NaN(), 1, 1e-9},
		{"nan hi", lin, -1, math.NaN(), 1e-9},
		{"inf lo", lin, math.Inf(-1), 1, 1e-9},
		{"inf hi", lin, -1, math.Inf(1), 1e-9},
		{"nan tol", lin, -1, 1, math.NaN()},
		{"nan endpoint value", func(x float64) float64 { return math.NaN() }, -1, 1, 1e-9},
		{"nan mid value", func(x float64) float64 {
			if x == -1 || x == 1 {
				return x
			}
			return math.NaN()
		}, -1, 1, 1e-9},
	}
	for _, c := range cases {
		if _, err := Bisect(c.f, c.lo, c.hi, c.tol); err != ErrNonFinite {
			t.Errorf("Bisect %s: err = %v, want ErrNonFinite", c.name, err)
		}
	}
}

func TestNewtonBisectNonFinite(t *testing.T) {
	lin := func(x float64) (float64, float64) { return x, 1 }
	if _, err := NewtonBisect(lin, math.NaN(), 1, 1e-9); err != ErrNonFinite {
		t.Errorf("NaN lo: err = %v, want ErrNonFinite", err)
	}
	if _, err := NewtonBisect(lin, -1, math.Inf(1), 1e-9); err != ErrNonFinite {
		t.Errorf("Inf hi: err = %v, want ErrNonFinite", err)
	}
	nanMid := func(x float64) (float64, float64) {
		if x == -1 || x == 1 {
			return x, 1
		}
		return math.NaN(), 1
	}
	if _, err := NewtonBisect(nanMid, -1, 1, 1e-9); err != ErrNonFinite {
		t.Errorf("NaN objective: err = %v, want ErrNonFinite", err)
	}
	// A NaN derivative must not error or stall: it forces the bisection
	// fallback and the root is still found.
	nanDeriv := func(x float64) (float64, float64) { return 2*x - 3, math.NaN() }
	x, err := NewtonBisect(nanDeriv, 0, 10, 1e-12)
	if err != nil || math.Abs(x-1.5) > 1e-9 {
		t.Errorf("NaN derivative: x = %v, err = %v, want 1.5, nil", x, err)
	}
}

func TestGoldenMaxNonFinite(t *testing.T) {
	bump := func(x float64) float64 { return -x * x }
	for _, c := range []struct {
		name        string
		lo, hi, tol float64
	}{
		{"nan lo", math.NaN(), 1, 1e-9},
		{"inf hi", -1, math.Inf(1), 1e-9},
		{"nan tol", -1, 1, math.NaN()},
	} {
		x, fx := GoldenMax(bump, c.lo, c.hi, c.tol)
		if !math.IsNaN(x) || !math.IsNaN(fx) {
			t.Errorf("GoldenMax %s: got (%v, %v), want (NaN, NaN) sentinel", c.name, x, fx)
		}
	}
	// NaN objective: terminates and surfaces NaN rather than garbage.
	x, fx := GoldenMax(func(float64) float64 { return math.NaN() }, -1, 1, 1e-9)
	if !math.IsNaN(fx) {
		t.Errorf("NaN objective: f = %v, want NaN (x = %v)", fx, x)
	}
}
