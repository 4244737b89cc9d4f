package pv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformStringMatchesScaledModules(t *testing.T) {
	// A 3-module string with uniform scales behaves like one module at 3×
	// the voltage.
	s := NewShadedString(BP3180N(), []float64{1, 1, 1})
	m := s.Module
	env := Env{Irradiance: 800, CellTemp: 30}
	if got, want := s.OpenCircuitVoltage(env), 3*at(m, env).OpenCircuitVoltage(); math.Abs(got-want) > 1e-6 {
		t.Errorf("string Voc = %v, want %v", got, want)
	}
	sm, mm := s.MPP(env), at(m, env).MPP()
	if math.Abs(sm.P-3*mm.P)/mm.P > 0.01 {
		t.Errorf("string Pmax = %v, want ≈ %v", sm.P, 3*mm.P)
	}
	if math.Abs(sm.V-3*mm.V)/mm.V > 0.02 {
		t.Errorf("string Vmpp = %v, want ≈ %v", sm.V, 3*mm.V)
	}
}

func TestShadingCreatesMultiplePeaks(t *testing.T) {
	// One module at 30 % irradiance behind a bypass diode folds the P-V
	// curve into two local maxima.
	s := NewShadedString(BP3180N(), []float64{1, 1, 0.3})
	peaks := s.LocalMPPs(STC)
	if len(peaks) < 2 {
		t.Fatalf("%d local maxima, want ≥ 2 under partial shading", len(peaks))
	}
	global := s.MPP(STC)
	for _, p := range peaks {
		if p.P > global.P*(1+1e-6) {
			t.Errorf("local peak %.1f W exceeds reported global %.1f W", p.P, global.P)
		}
	}
	// The two dominant peaks must be well separated in voltage (the bypass
	// knee sits between them).
	if math.Abs(peaks[0].V-peaks[len(peaks)-1].V) < 10 {
		t.Errorf("peaks not separated: %+v", peaks)
	}
}

func TestShadedStringBeatsNoBypassFloor(t *testing.T) {
	// With a bypass diode the string can still harvest the two bright
	// modules (~2/3 of unshaded power at the high-current peak); without
	// one it would be dragged to the weak module's photocurrent. Verify the
	// global MPP exceeds the weak-limited bound.
	s := NewShadedString(BP3180N(), []float64{1, 1, 0.25})
	unshaded := NewShadedString(BP3180N(), []float64{1, 1, 1}).MPP(STC).P
	weakLimited := unshaded * 0.25 // all modules forced to the weak current
	got := s.MPP(STC).P
	if got <= weakLimited*1.5 {
		t.Errorf("global MPP %.1f W not clearly above weak-limited %.1f W", got, weakLimited)
	}
	if got >= unshaded {
		t.Errorf("shaded MPP %.1f W cannot exceed unshaded %.1f W", got, unshaded)
	}
}

func TestShadedStringMonotoneIV(t *testing.T) {
	s := NewShadedString(BP3180N(), []float64{1, 0.6, 0.3})
	voc := s.OpenCircuitVoltage(STC)
	prev := math.Inf(1)
	for i := 0; i <= 100; i++ {
		v := voc * float64(i) / 100
		c := s.Current(STC, v)
		if c > prev+1e-6 {
			t.Fatalf("string I-V not non-increasing at V=%.2f", v)
		}
		prev = c
	}
	if c := s.Current(STC, voc+1); c != 0 {
		t.Errorf("current beyond Voc = %v", c)
	}
}

func TestShadedStringResistiveOperating(t *testing.T) {
	s := NewShadedString(BP3180N(), []float64{1, 1, 0.4})
	prop := func(rRaw uint8) bool {
		r := 1 + float64(rRaw)/4
		v, i := s.ResistiveOperating(STC, r)
		if v < 0 || i < 0 {
			return false
		}
		// On the load line and on the curve.
		if math.Abs(i-v/r) > 1e-6*(1+i) {
			return false
		}
		return math.Abs(s.Current(STC, v)-i) < 1e-3*(1+i)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// Edges.
	if v, i := s.ResistiveOperating(STC, math.Inf(1)); i != 0 || v <= 0 {
		t.Errorf("open circuit: %v, %v", v, i)
	}
	if _, i := s.ResistiveOperating(STC, 0); i <= 0 {
		t.Error("short circuit should carry current")
	}
	if v, i := s.ResistiveOperating(Env{0, 25}, 5); v != 0 || i != 0 {
		t.Error("dark string should be dead")
	}
}

func TestShadedStringDark(t *testing.T) {
	s := NewShadedString(BP3180N(), []float64{1, 1})
	dark := Env{Irradiance: 0, CellTemp: 25}
	if s.MPP(dark).P != 0 {
		t.Error("dark MPP should be zero")
	}
	if s.LocalMPPs(dark) != nil {
		t.Error("dark string has no local maxima")
	}
	if s.Current(dark, 5) != 0 {
		t.Error("dark current should be zero")
	}
}

func TestVoltageAtInverse(t *testing.T) {
	// VoltageAt must invert Current on the forward branch.
	m := bp()
	prop := func(iRaw uint8) bool {
		i := float64(iRaw) / 255 * 5.0 // 0..5 A
		v, ok := m.VoltageAt(STC, i)
		if !ok {
			return i > 5.0 // only very high currents may fail at STC
		}
		return math.Abs(at(m, STC).Current(v)-i) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if _, ok := m.VoltageAt(STC, 50); ok {
		t.Error("current above Iph must not be forward-feasible")
	}
	if _, ok := m.VoltageAt(STC, -1); ok {
		t.Error("negative current must not be forward-feasible")
	}
	if _, ok := m.VoltageAt(Env{0, 25}, 0.1); ok {
		t.Error("dark module cannot source current")
	}
}
