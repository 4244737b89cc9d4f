package pv

import (
	"math"
	"testing"
)

func TestTwoDiodeCloseToSingleAtSTC(t *testing.T) {
	// The justification for the paper's single-diode choice: at standard
	// conditions the recombination diode changes Pmax by only a few
	// percent.
	one := NewModule(BP3180N())
	two := NewTwoDiodeModule(BP3180N())
	p1, p2 := at(one, STC).MPP().P, two.MPP(STC).P
	if p2 >= p1 {
		t.Errorf("second diode should only sink current: %v vs %v", p2, p1)
	}
	if rel := (p1 - p2) / p1; rel > 0.06 {
		t.Errorf("two-diode Pmax deviates %.1f%% at STC, want small", rel*100)
	}
}

func TestTwoDiodeMattersMoreAtLowLight(t *testing.T) {
	one := NewModule(BP3180N())
	two := NewTwoDiodeModule(BP3180N())
	rel := func(g float64) float64 {
		env := Env{Irradiance: g, CellTemp: 25}
		p1, p2 := at(one, env).MPP().P, two.MPP(env).P
		return (p1 - p2) / p1
	}
	if rel(100) <= rel(1000) {
		t.Errorf("recombination losses should grow at low light: %.3f vs %.3f", rel(100), rel(1000))
	}
}

func TestTwoDiodeGeneratorContract(t *testing.T) {
	m := NewTwoDiodeModule(BP3180N())
	voc := m.OpenCircuitVoltage(STC)
	if voc <= 0 || voc >= at(m.Module, STC).OpenCircuitVoltage()+1e-9 {
		t.Errorf("two-diode Voc = %v, want below single-diode Voc", voc)
	}
	if c := m.Current(STC, voc); math.Abs(c) > 1e-3 {
		t.Errorf("Current(Voc) = %v", c)
	}
	// Monotone I-V.
	prev := math.Inf(1)
	for i := 0; i <= 40; i++ {
		v := voc * float64(i) / 40
		c := m.Current(STC, v)
		if c > prev+1e-9 {
			t.Fatalf("two-diode I-V not monotone at %v", v)
		}
		prev = c
	}
	// Resistive operating point on both curves.
	v, i := m.ResistiveOperating(STC, 7)
	if math.Abs(i-v/7) > 1e-6 {
		t.Errorf("load line missed: %v vs %v", i, v/7)
	}
	if math.Abs(m.Current(STC, v)-i) > 1e-3 {
		t.Errorf("curve missed: %v vs %v", m.Current(STC, v), i)
	}
	// Edge cases.
	if m.Current(Env{0, 25}, 10) != 0 || m.OpenCircuitVoltage(Env{0, 25}) != 0 {
		t.Error("dark two-diode module should be dead")
	}
	if p := m.MPP(Env{0, 25}); p.P != 0 {
		t.Error("dark MPP should be zero")
	}
	if _, i := m.ResistiveOperating(STC, 0); i <= 0 {
		t.Error("short circuit should carry current")
	}
	if v, i := m.ResistiveOperating(STC, math.Inf(1)); i != 0 || v <= 0 {
		t.Error("open circuit wrong")
	}
}

func TestPowerTemperatureCoefficient(t *testing.T) {
	// Datasheet validation: crystalline silicon modules lose ~0.4-0.5 % of
	// Pmax per °C (BP3180N datasheet: −0.5 %/K). Measure the model's
	// coefficient over the 25→50 °C span of Figure 7.
	m := bp()
	p25 := at(m, Env{Irradiance: 1000, CellTemp: 25}).MPP().P
	p50 := at(m, Env{Irradiance: 1000, CellTemp: 50}).MPP().P
	coeff := (p25 - p50) / 25 / p25
	if coeff < 0.0030 || coeff > 0.0060 {
		t.Errorf("power temperature coefficient %.4f/K, datasheet says ≈ 0.005/K", coeff)
	}
}
