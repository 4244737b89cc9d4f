package pv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestArrayScaling(t *testing.T) {
	m := bp()
	a := NewArray(BP3180N(), 2, 3)
	mm := at(m, STC).MPP()
	am := at(a, STC).MPP()
	if math.Abs(am.V-2*mm.V) > 1e-6 {
		t.Errorf("array Vmpp = %v, want %v", am.V, 2*mm.V)
	}
	if math.Abs(am.I-3*mm.I) > 1e-6 {
		t.Errorf("array Impp = %v, want %v", am.I, 3*mm.I)
	}
	if math.Abs(am.P-6*mm.P) > 1e-6 {
		t.Errorf("array Pmax = %v, want %v", am.P, 6*mm.P)
	}
	if got, want := at(a, STC).OpenCircuitVoltage(), 2*at(m, STC).OpenCircuitVoltage(); math.Abs(got-want) > 1e-9 {
		t.Errorf("array Voc = %v, want %v", got, want)
	}
	if got, want := at(a, STC).ShortCircuitCurrent(), 3*at(m, STC).ShortCircuitCurrent(); math.Abs(got-want) > 1e-9 {
		t.Errorf("array Isc = %v, want %v", got, want)
	}
}

func TestArrayDegenerateCounts(t *testing.T) {
	a := NewArray(BP3180N(), 0, -2)
	if a.Series != 1 || a.Parallel != 1 {
		t.Errorf("counts not clamped: %d×%d", a.Series, a.Parallel)
	}
}

func TestArrayMPPConsistentWithSweep(t *testing.T) {
	// Property: the scaled MPP really is the maximum of the array P-V sweep.
	a := NewArray(BP3180N(), 1, 2)
	prop := func(gRaw uint8) bool {
		env := Env{Irradiance: 200 + float64(gRaw)*3, CellTemp: 30}
		mpp := at(a, env).MPP()
		voc := at(a, env).OpenCircuitVoltage()
		for i := 0; i <= 64; i++ {
			v := voc * float64(i) / 64
			if at(a, env).Power(v) > mpp.P*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIVCurveShape(t *testing.T) {
	m := bp()
	pts := IVCurve(m, STC, 101)
	if len(pts) != 101 {
		t.Fatalf("len = %d, want 101", len(pts))
	}
	if pts[0].V != 0 || pts[0].P != 0 {
		t.Errorf("first point %+v, want V=0, P=0", pts[0])
	}
	last := pts[len(pts)-1]
	if math.Abs(last.I) > 1e-6 {
		t.Errorf("last point current = %v, want ~0 at Voc", last.I)
	}
	// Current column non-increasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].I > pts[i-1].I+1e-9 {
			t.Fatalf("I-V not monotone at %d", i)
		}
	}
}

func TestIVCurveMinPoints(t *testing.T) {
	if got := len(IVCurve(bp(), STC, 0)); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
}

func TestFixedLoadUtilizationDrops(t *testing.T) {
	// Figure 1: a resistor matched at 1000 W/m² loses more than half the
	// available energy at 400 W/m².
	m := bp()
	mpp := at(m, STC).MPP()
	r := mpp.V / mpp.I // matched load at STC
	if u := UtilizationAtFixedLoad(m, STC, r); u < 0.97 {
		t.Errorf("matched-load utilization at STC = %.3f, want ≈ 1", u)
	}
	low := Env{Irradiance: 400, CellTemp: 25}
	if u := UtilizationAtFixedLoad(m, low, r); u > 0.72 {
		t.Errorf("fixed-load utilization at 400 W/m² = %.3f, want significant loss", u)
	}
	if u := UtilizationAtFixedLoad(m, low, 0); u != 0 {
		t.Errorf("utilization with R=0 = %v, want 0", u)
	}
}

func TestOperatingVoltageResistive(t *testing.T) {
	m := bp()
	r := 10.0
	v := OperatingVoltageResistive(m, STC, r)
	i := at(m, STC).Current(v)
	if math.Abs(i-v/r) > 1e-3 {
		t.Errorf("load line mismatch: I=%.4f, V/R=%.4f", i, v/r)
	}
	if OperatingVoltageResistive(m, Env{0, 25}, r) != 0 {
		t.Error("dark panel should give zero operating voltage")
	}
}
