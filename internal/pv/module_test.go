package pv

import (
	"math"
	"testing"
	"testing/quick"

	"solarcore/internal/mathx"
)

func bp() *Module { return NewModule(BP3180N()) }

func TestSTCCalibration(t *testing.T) {
	m := bp()
	mpp := at(m, STC).MPP()
	if mpp.P < 172 || mpp.P > 188 {
		t.Errorf("Pmax at STC = %.1f W, want ≈ 180 W", mpp.P)
	}
	if mpp.V < 32 || mpp.V > 40 {
		t.Errorf("Vmpp at STC = %.1f V, want ≈ 35-37 V", mpp.V)
	}
	voc := at(m, STC).OpenCircuitVoltage()
	if math.Abs(voc-m.P.VocRef) > 0.05 {
		t.Errorf("Voc at STC = %.2f V, want %.2f V", voc, m.P.VocRef)
	}
	isc := at(m, STC).ShortCircuitCurrent()
	if math.Abs(isc-m.P.IscRef) > 0.1 {
		t.Errorf("Isc at STC = %.2f A, want ≈ %.2f A", isc, m.P.IscRef)
	}
}

func TestCurrentMonotoneInVoltage(t *testing.T) {
	m := bp()
	for _, env := range []Env{STC, {800, 40}, {400, 10}, {600, 60}} {
		voc := at(m, env).OpenCircuitVoltage()
		prev := math.Inf(1)
		for i := 0; i <= 50; i++ {
			v := voc * float64(i) / 50
			c := at(m, env).Current(v)
			if c > prev+1e-9 {
				t.Fatalf("env %+v: current not non-increasing at V=%.2f (%.4f > %.4f)", env, v, c, prev)
			}
			prev = c
		}
	}
}

func TestCurrentZeroBeyondVoc(t *testing.T) {
	m := bp()
	voc := at(m, STC).OpenCircuitVoltage()
	if c := at(m, STC).Current(voc); math.Abs(c) > 1e-6 {
		t.Errorf("Current(Voc) = %v, want ~0", c)
	}
	if c := at(m, STC).Current(voc + 5); c != 0 {
		t.Errorf("Current(Voc+5) = %v, want 0 (blocking diode)", c)
	}
}

func TestDarknessProducesNothing(t *testing.T) {
	m := bp()
	dark := Env{Irradiance: 0, CellTemp: 25}
	if at(m, dark).OpenCircuitVoltage() != 0 {
		t.Error("Voc in darkness should be 0")
	}
	if at(m, dark).Current(10) != 0 {
		t.Error("current in darkness should be 0")
	}
	if got := at(m, dark).MPP(); got.P != 0 {
		t.Errorf("MPP in darkness = %+v, want zero", got)
	}
}

func TestIrradianceScalesPower(t *testing.T) {
	// Figure 6: more sun, more photocurrent, MPP moves upward.
	m := bp()
	prev := 0.0
	for _, g := range []float64{200, 400, 600, 800, 1000} {
		p := at(m, Env{Irradiance: g, CellTemp: 25}).MPP().P
		if p <= prev {
			t.Errorf("Pmax(%v W/m²) = %.1f, not increasing", g, p)
		}
		prev = p
	}
	// Pmax is close to (slightly sublinear in) proportional scaling.
	half := at(m, Env{Irradiance: 500, CellTemp: 25}).MPP().P
	full := at(m, STC).MPP().P
	if ratio := half / full; ratio < 0.42 || ratio > 0.53 {
		t.Errorf("Pmax(500)/Pmax(1000) = %.3f, want roughly 0.42-0.53", ratio)
	}
}

func TestTemperatureDegradesPower(t *testing.T) {
	// Figure 7: hotter cell → lower Voc, slightly higher Isc, lower Pmax,
	// MPP voltage shifts left.
	m := bp()
	prevP, prevVoc, prevVmpp := math.Inf(1), math.Inf(1), math.Inf(1)
	prevIsc := 0.0
	for _, tc := range []float64{0, 25, 50, 75} {
		env := Env{Irradiance: 1000, CellTemp: tc}
		mpp := at(m, env).MPP()
		voc := at(m, env).OpenCircuitVoltage()
		isc := at(m, env).ShortCircuitCurrent()
		if mpp.P >= prevP {
			t.Errorf("Pmax(T=%v) = %.1f, not decreasing", tc, mpp.P)
		}
		if voc >= prevVoc {
			t.Errorf("Voc(T=%v) = %.2f, not decreasing", tc, voc)
		}
		if mpp.V >= prevVmpp {
			t.Errorf("Vmpp(T=%v) = %.2f, not shifting left", tc, mpp.V)
		}
		if isc <= prevIsc {
			t.Errorf("Isc(T=%v) = %.3f, not increasing", tc, isc)
		}
		prevP, prevVoc, prevVmpp, prevIsc = mpp.P, voc, mpp.V, isc
	}
}

func TestMPPBeatsEveryOtherVoltage(t *testing.T) {
	// Property: no sampled voltage outperforms the reported MPP.
	m := bp()
	prop := func(gRaw, tRaw, vRaw uint8) bool {
		env := Env{
			Irradiance: 100 + float64(gRaw)*4, // 100..1120 W/m²
			CellTemp:   float64(tRaw % 76),    // 0..75 °C
		}
		mpp := at(m, env).MPP()
		voc := at(m, env).OpenCircuitVoltage()
		v := voc * float64(vRaw) / 255
		return at(m, env).Power(v) <= mpp.P*(1+1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPowerUnimodalOnGrid(t *testing.T) {
	// P(V) rises to the MPP then falls: exactly one sign change of the
	// discrete slope on a coarse grid.
	m := bp()
	for _, env := range []Env{STC, {700, 45}, {300, 15}} {
		voc := at(m, env).OpenCircuitVoltage()
		changes := 0
		prevSlope := 1.0
		prevP := 0.0
		for i := 1; i <= 200; i++ {
			v := voc * float64(i) / 200
			p := at(m, env).Power(v)
			slope := p - prevP
			if slope*prevSlope < 0 {
				changes++
			}
			if slope != 0 {
				prevSlope = slope
			}
			prevP = p
		}
		if changes != 1 {
			t.Errorf("env %+v: %d slope sign changes, want 1 (unimodal)", env, changes)
		}
	}
}

func TestCellTemperatureNOCT(t *testing.T) {
	p := BP3180N()
	// At zero irradiance the cell sits at ambient.
	if got := p.CellTemperature(20, 0); got != 20 {
		t.Errorf("CellTemperature(20,0) = %v, want 20", got)
	}
	// At 800 W/m² and 20 °C ambient the cell reaches NOCT by definition.
	if got := p.CellTemperature(20, 800); math.Abs(got-p.NOCT) > 1e-9 {
		t.Errorf("CellTemperature(20,800) = %v, want NOCT %v", got, p.NOCT)
	}
}

// goldenMPP is the golden-section search MPP solved before: the
// maximum of V·I(V) over [0, Voc], each probe a nested Current solve.
// It is the oracle the closed-form Newton solve is held to.
func goldenMPP(m *Module, env Env) MPP {
	voc := at(m, env).OpenCircuitVoltage()
	if voc <= 0 {
		return MPP{}
	}
	v, p := mathx.GoldenMax(func(v float64) float64 { return at(m, env).Power(v) }, 0, voc, voc*1e-7)
	return MPP{V: v, I: p / v, P: p}
}

// TestMPPMatchesGoldenSection holds the Newton MPP to the golden-section
// oracle over the operating envelope: G 5–1200 W/m² × T −10–75 °C, 240 ×
// 35 points. Both find the maximum of one curve, so their powers must
// agree to |ΔP|/P ≤ 1e-11, and the voltages to the oracle's search
// tolerance.
func TestMPPMatchesGoldenSection(t *testing.T) {
	m := bp()
	worst := 0.0
	for gi := 0; gi < 240; gi++ {
		g := 5 + float64(gi)*(1200-5)/239
		for ti := 0; ti < 35; ti++ {
			env := Env{Irradiance: g, CellTemp: -10 + float64(ti)*85/34}
			got, want := at(m, env).MPP(), goldenMPP(m, env)
			rel := math.Abs(got.P-want.P) / want.P
			worst = math.Max(worst, rel)
			if rel > 1e-11 {
				t.Fatalf("%+v: Newton P=%.15g, golden P=%.15g (|ΔP|/P = %.3g > 1e-11)", env, got.P, want.P, rel)
			}
			if voc := at(m, env).OpenCircuitVoltage(); math.Abs(got.V-want.V) > voc*1e-6 {
				t.Fatalf("%+v: Newton V=%.9g, golden V=%.9g", env, got.V, want.V)
			}
			if !mathx.ApproxEq(got.P, got.V*got.I, 1e-12) {
				t.Fatalf("%+v: P=%v is not V·I=%v", env, got.P, got.V*got.I)
			}
		}
	}
	t.Logf("worst |ΔP|/P = %.3g", worst)
}
