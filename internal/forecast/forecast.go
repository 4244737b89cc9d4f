// Package forecast provides short-horizon available-power prediction for
// solar-driven power management. SolarCore itself is reactive — it tracks
// the MPP after the weather moves — but budget planning questions (how
// much margin to hold, whether to pre-arm the transfer switch, what to bid
// into a datacenter scheduler) need an estimate of the next tracking
// period's budget. The package implements the standard short-horizon
// baselines and a skill evaluation over weather traces.
package forecast

import (
	"math"

	"solarcore/internal/mathx"
)

// Forecaster predicts available power a fixed horizon ahead from the
// stream of past observations.
type Forecaster interface {
	Name() string
	// Observe feeds one measurement (simulation minute, available watts).
	Observe(minute, watts float64)
	// Predict estimates the available watts at minute now+horizon.
	Predict(horizonMin float64) float64
	// Reset clears history.
	Reset()
}

// Persistence predicts "same as now" — the canonical short-horizon
// baseline that any smarter forecaster must beat.
type Persistence struct {
	last float64
	seen bool
}

// Name identifies the forecaster.
func (*Persistence) Name() string { return "persistence" }

// Reset clears history.
func (p *Persistence) Reset() { *p = Persistence{} }

// Observe records the latest measurement.
func (p *Persistence) Observe(_, watts float64) { p.last, p.seen = watts, true }

// Predict returns the last observation.
func (p *Persistence) Predict(float64) float64 {
	if !p.seen {
		return 0
	}
	return p.last
}

// EWMA exponentially smooths the observation stream; it trades lag for
// noise immunity on flickering (partly cloudy) days.
type EWMA struct {
	// Alpha is the smoothing weight of the newest sample (default 0.4).
	Alpha float64

	value float64
	seen  bool
}

// Name identifies the forecaster.
func (*EWMA) Name() string { return "ewma" }

// Reset clears history.
func (e *EWMA) Reset() { e.value, e.seen = 0, false }

// Observe folds in a measurement.
func (e *EWMA) Observe(_, watts float64) {
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.4
	}
	if !e.seen {
		e.value, e.seen = watts, true
		return
	}
	e.value = a*watts + (1-a)*e.value
}

// Predict returns the smoothed level.
func (e *EWMA) Predict(float64) float64 { return e.value }

// LinearTrend fits a least-squares line over a sliding window and
// extrapolates it — it anticipates the morning ramp and the afternoon
// decline that persistence always lags.
type LinearTrend struct {
	// Window is the number of observations retained (default 6).
	Window int

	minutes []float64
	watts   []float64
}

// Name identifies the forecaster.
func (*LinearTrend) Name() string { return "trend" }

// Reset clears history.
func (l *LinearTrend) Reset() { l.minutes, l.watts = nil, nil }

// Observe appends a measurement, discarding outside the window.
func (l *LinearTrend) Observe(minute, watts float64) {
	w := l.Window
	if w < 2 {
		w = 6
	}
	l.minutes = append(l.minutes, minute)
	l.watts = append(l.watts, watts)
	if len(l.minutes) > w {
		l.minutes = l.minutes[len(l.minutes)-w:]
		l.watts = l.watts[len(l.watts)-w:]
	}
}

// Predict extrapolates the fitted line, clamped at zero.
func (l *LinearTrend) Predict(horizonMin float64) float64 {
	n := len(l.minutes)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return l.watts[0]
	}
	mt, mw := mathx.Mean(l.minutes), mathx.Mean(l.watts)
	var num, den float64
	for i := 0; i < n; i++ {
		num += (l.minutes[i] - mt) * (l.watts[i] - mw)
		den += (l.minutes[i] - mt) * (l.minutes[i] - mt)
	}
	if den == 0 {
		return mw
	}
	slope := num / den
	pred := mw + slope*(l.minutes[n-1]+horizonMin-mt)
	if pred < 0 {
		return 0
	}
	return pred
}

// All returns one instance of every forecaster.
func All() []Forecaster {
	return []Forecaster{&Persistence{}, &EWMA{}, &LinearTrend{}}
}

// Skill is a forecaster's error statistics over one evaluation.
type Skill struct {
	Forecaster string
	MAE        float64 // mean absolute error, W
	RMSE       float64 // root mean squared error, W
	Bias       float64 // mean signed error (prediction − truth), W
	Samples    int
}

// Evaluate replays a series of (minute, watts) samples through the
// forecaster, predicting horizonMin ahead at every step, and scores the
// predictions against the later truth.
func Evaluate(f Forecaster, minutes, watts []float64, horizonMin float64) Skill {
	f.Reset()
	var absSum, sqSum, biasSum float64
	n := 0
	for i := range minutes {
		f.Observe(minutes[i], watts[i])
		// Find the truth sample at or after the horizon.
		target := minutes[i] + horizonMin
		for j := i + 1; j < len(minutes); j++ {
			if minutes[j] >= target-1e-9 {
				err := f.Predict(horizonMin) - watts[j]
				absSum += math.Abs(err)
				sqSum += err * err
				biasSum += err
				n++
				break
			}
		}
	}
	sk := Skill{Forecaster: f.Name(), Samples: n}
	if n > 0 {
		sk.MAE = absSum / float64(n)
		sk.RMSE = math.Sqrt(sqSum / float64(n))
		sk.Bias = biasSum / float64(n)
	}
	return sk
}
