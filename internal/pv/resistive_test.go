package pv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestResistiveOperatingOnCurve(t *testing.T) {
	// Property: the fast joint solve lands on the I-V curve and the load
	// line simultaneously, for random loads and environments.
	m := bp()
	prop := func(rRaw, gRaw uint8) bool {
		r := 0.5 + float64(rRaw)/4 // 0.5..64 Ω
		env := Env{Irradiance: 150 + 4*float64(gRaw), CellTemp: 30}
		v, i := at(m, env).ResistiveOperating(r)
		if v < 0 || i < 0 {
			return false
		}
		// On the load line.
		if math.Abs(i-v/r) > 1e-9 {
			return false
		}
		// On the I-V curve (cross-check against the implicit solver).
		return math.Abs(at(m, env).Current(v)-i) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResistiveOperatingEdges(t *testing.T) {
	// Every generator settles the edge loads itself (power.Circuit.Operate
	// relies on it): dark is (0, 0) at any load, an open load sits at
	// exactly (Voc, 0), and a short at (0, Isc).
	dark := Env{Irradiance: 0, CellTemp: 25}
	for _, c := range []struct {
		name string
		gen  Generator
	}{
		{"Module", bp()},
		{"Array", NewArray(BP3180N(), 3, 2)},
		{"ShadedString", NewShadedString(BP3180N(), []float64{1, 0.3, 1})},
		{"TwoDiodeModule", NewTwoDiodeModule(BP3180N())},
	} {
		for _, r := range []float64{0, 10, math.Inf(1)} {
			if v, i := at(c.gen, dark).ResistiveOperating(r); v != 0 || i != 0 {
				t.Errorf("%s dark, r=%v: (%v, %v), want (0, 0)", c.name, r, v, i)
			}
		}
		voc := at(c.gen, STC).OpenCircuitVoltage()
		if v, i := at(c.gen, STC).ResistiveOperating(math.Inf(1)); v != voc || i != 0 {
			t.Errorf("%s open: (%v, %v), want (%v, 0)", c.name, v, i, voc)
		}
		v, i := at(c.gen, STC).ResistiveOperating(0)
		if v != 0 || math.Abs(i-at(c.gen, STC).ShortCircuitCurrent()) > 1e-6 {
			t.Errorf("%s short: (%v, %v), want (0, %v)", c.name, v, i, at(c.gen, STC).ShortCircuitCurrent())
		}
	}
}

func TestArrayResistiveOperating(t *testing.T) {
	// A 2×2 array on a load R behaves like one module on R (same V/I per
	// module, voltage and current both doubled).
	a := NewArray(BP3180N(), 2, 2)
	m := a.Module
	vm, im := at(m, STC).ResistiveOperating(7)
	va, ia := at(a, STC).ResistiveOperating(7)
	if math.Abs(va-2*vm) > 1e-6 || math.Abs(ia-2*im) > 1e-6 {
		t.Errorf("array op (%v,%v), want (%v,%v)", va, ia, 2*vm, 2*im)
	}
	// Load-line consistency at array level.
	if math.Abs(ia-va/7) > 1e-9 {
		t.Errorf("array point off the load line: %v vs %v", ia, va/7)
	}
}

// BenchmarkResistiveOperating samples a fresh curve per solve, so the
// load-line memo never answers.
func BenchmarkResistiveOperating(b *testing.B) {
	m := bp()
	env := Env{Irradiance: 700, CellTemp: 40}
	for i := 0; i < b.N; i++ {
		at(m, env).ResistiveOperating(3.5)
	}
}

func BenchmarkMPP(b *testing.B) {
	m := bp()
	env := Env{Irradiance: 700, CellTemp: 40}
	for i := 0; i < b.N; i++ {
		at(m, env).MPP()
	}
}
