package sim

import (
	"math"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/pv"
)

func testDay(t *testing.T, site atmos.Site, season atmos.Season) *SolarDay {
	t.Helper()
	tr := atmos.Generate(site, season, atmos.GenConfig{})
	d, err := NewSolarDay(tr, pv.BP3180N(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewSolarDayValidation(t *testing.T) {
	if _, err := NewSolarDay(nil, pv.BP3180N(), 1, 1); err == nil {
		t.Error("nil trace should error")
	}
	short := &atmos.Trace{Samples: []atmos.Sample{{Minute: 450}}}
	if _, err := NewSolarDay(short, pv.BP3180N(), 1, 1); err == nil {
		t.Error("single-sample trace should error")
	}
}

func TestSolarDayWindow(t *testing.T) {
	d := testDay(t, atmos.AZ, atmos.Jan)
	if d.StartMinute() != atmos.DayStartMinute || d.EndMinute() != atmos.DayEndMinute {
		t.Errorf("window [%v,%v]", d.StartMinute(), d.EndMinute())
	}
	if d.DaytimeMinutes() != atmos.DayMinutes {
		t.Errorf("daytime %v", d.DaytimeMinutes())
	}
}

func TestMPPAtMatchesDirectSolve(t *testing.T) {
	d := testDay(t, atmos.AZ, atmos.Apr)
	for _, m := range []float64{500, 720, 900} {
		env := d.EnvAt(m)
		c := d.Gen.At(env)
		want := c.MPP().P
		got := d.MPPAt(m)
		// Interpolated vs direct: within a few percent on a 1-min grid.
		if want > 1 && math.Abs(got-want)/want > 0.08 {
			t.Errorf("minute %v: MPPAt %.2f vs direct %.2f", m, got, want)
		}
	}
	// Clamping outside the window.
	if got := d.MPPAt(0); got != d.MPPAt(d.StartMinute()) {
		t.Errorf("pre-dawn MPPAt = %v", got)
	}
	if got := d.MPPAt(1e6); got != d.MPPAt(d.EndMinute()) {
		t.Errorf("post-dusk MPPAt = %v", got)
	}
}

func TestMPPEnergyConsistentWithInsolation(t *testing.T) {
	// Panel MPP energy must scale with insolation: a module with ~18 %
	// conversion at 1.26 m² of the BP3180N gives roughly 0.18 × insolation
	// × area... rather than rely on area bookkeeping, assert the energy is
	// within the plausible band [0.12, 0.22] Wh per Wh/m² of insolation
	// (the module's effective aperture in m² times efficiency).
	d := testDay(t, atmos.AZ, atmos.Jul)
	insolWh := d.Trace.InsolationKWh() * 1000
	ratio := d.MPPEnergyWh() / insolWh
	if ratio < 0.10 || ratio > 0.25 {
		t.Errorf("MPP energy / insolation = %.3f, implausible", ratio)
	}
}

func TestEnvAtInterpolates(t *testing.T) {
	d := testDay(t, atmos.NC, atmos.Oct)
	a := d.EnvAt(600)
	b := d.EnvAt(600.5)
	c := d.EnvAt(601)
	if b.Irradiance < math.Min(a.Irradiance, c.Irradiance)-1e-9 ||
		b.Irradiance > math.Max(a.Irradiance, c.Irradiance)+1e-9 {
		t.Errorf("interpolation not between neighbours: %v %v %v", a.Irradiance, b.Irradiance, c.Irradiance)
	}
	if b.CellTemp <= 0 {
		t.Error("cell temperature should be positive in October NC daytime")
	}
	// Cell runs hotter than ambient under sun.
	g, amb := d.Trace.At(720)
	if g > 100 {
		env := d.EnvAt(720)
		if env.CellTemp <= amb {
			t.Errorf("cell %v not above ambient %v under %v W/m²", env.CellTemp, amb, g)
		}
	}
}
