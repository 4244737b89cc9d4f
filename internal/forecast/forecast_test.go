package forecast

import (
	"math"
	"testing"
	"testing/quick"

	"solarcore/internal/atmos"
)

func TestPersistence(t *testing.T) {
	p := &Persistence{}
	if p.Predict(10) != 0 {
		t.Error("empty persistence should predict 0")
	}
	p.Observe(0, 100)
	p.Observe(10, 120)
	if p.Predict(10) != 120 {
		t.Errorf("predict = %v, want 120", p.Predict(10))
	}
	p.Reset()
	if p.Predict(10) != 0 {
		t.Error("reset lost")
	}
}

func TestEWMASmooths(t *testing.T) {
	e := &EWMA{Alpha: 0.5}
	e.Observe(0, 100)
	e.Observe(10, 200)
	if got := e.Predict(10); got != 150 {
		t.Errorf("EWMA = %v, want 150", got)
	}
	// Bad alpha falls back to default without blowing up.
	bad := &EWMA{Alpha: 5}
	bad.Observe(0, 100)
	bad.Observe(10, 200)
	if got := bad.Predict(10); got <= 100 || got >= 200 {
		t.Errorf("defaulted EWMA = %v", got)
	}
}

func TestLinearTrendExtrapolates(t *testing.T) {
	l := &LinearTrend{Window: 4}
	// Perfect ramp: 2 W per minute.
	for m := 0.0; m <= 40; m += 10 {
		l.Observe(m, 100+2*m)
	}
	want := 100 + 2*50.0
	if got := l.Predict(10); math.Abs(got-want) > 1e-6 {
		t.Errorf("trend predict = %v, want %v", got, want)
	}
	// Falling ramp clamps at zero rather than going negative.
	l.Reset()
	for m := 0.0; m <= 40; m += 10 {
		l.Observe(m, math.Max(0, 50-2*m))
	}
	if got := l.Predict(60); got != 0 {
		t.Errorf("negative extrapolation = %v, want clamp 0", got)
	}
	// Degenerate states.
	l.Reset()
	if l.Predict(10) != 0 {
		t.Error("empty trend should predict 0")
	}
	l.Observe(5, 42)
	if l.Predict(10) != 42 {
		t.Error("single-sample trend should persist")
	}
}

func TestTrendBeatsPersistenceOnRamps(t *testing.T) {
	// On a pure deterministic ramp the trend forecaster is exact while
	// persistence lags by slope×horizon.
	var minutes, watts []float64
	for m := 0.0; m <= 300; m += 10 {
		minutes = append(minutes, m)
		watts = append(watts, 20+m) // 1 W/min ramp
	}
	trend := Evaluate(&LinearTrend{}, minutes, watts, 10)
	pers := Evaluate(&Persistence{}, minutes, watts, 10)
	// The only trend error is the single-sample warm-up prediction.
	if trend.MAE > 0.5 {
		t.Errorf("trend MAE on pure ramp = %v, want ≈ 0 after warm-up", trend.MAE)
	}
	if pers.MAE < 9.9 {
		t.Errorf("persistence MAE on ramp = %v, want ≈ 10", pers.MAE)
	}
}

func TestSkillOnRealWeather(t *testing.T) {
	// On generated weather every forecaster must stay within a sane error
	// band and produce samples; persistence must remain competitive (the
	// standard result at 10-minute horizons).
	tr := atmos.Generate(atmos.AZ, atmos.Jul, atmos.GenConfig{})
	var minutes, watts []float64
	for _, s := range tr.Samples {
		minutes = append(minutes, s.Minute)
		watts = append(watts, s.Irradiance) // use irradiance as proxy power
	}
	var skills []Skill
	for _, f := range All() {
		sk := Evaluate(f, minutes, watts, 10)
		if sk.Samples < 500 {
			t.Errorf("%s: only %d samples", sk.Forecaster, sk.Samples)
		}
		if sk.MAE <= 0 || sk.MAE > 300 {
			t.Errorf("%s: MAE %v implausible", sk.Forecaster, sk.MAE)
		}
		skills = append(skills, sk)
	}
	// RMSE ≥ MAE always.
	for _, sk := range skills {
		if sk.RMSE < sk.MAE-1e-9 {
			t.Errorf("%s: RMSE %v below MAE %v", sk.Forecaster, sk.RMSE, sk.MAE)
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	sk := Evaluate(&Persistence{}, nil, nil, 10)
	if sk.Samples != 0 || sk.MAE != 0 {
		t.Errorf("empty evaluation: %+v", sk)
	}
}

func TestForecastersNonNegativeProperty(t *testing.T) {
	// Property: predictions from non-negative observations stay
	// non-negative for every forecaster.
	prop := func(raw []uint8) bool {
		for _, f := range All() {
			f.Reset()
			for i, r := range raw {
				f.Observe(float64(i*10), float64(r))
			}
			if f.Predict(10) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
