package tracker

import (
	"math"

	"solarcore/internal/power"
	"solarcore/internal/pv"
)

// Sample is one control period of a tracker evaluation.
type Sample struct {
	Minute    float64
	Available float64 // η·Pmpp, the deliverable maximum (W)
	Delivered float64 // power actually reaching the load (W)
	VLoad     float64 // load rail voltage (V)
}

// Evaluation aggregates a tracker run over an irradiance schedule.
type Evaluation struct {
	Algorithm string
	Samples   []Sample
}

// TrackingEfficiency returns delivered energy over deliverable energy.
func (e Evaluation) TrackingEfficiency() float64 {
	var got, avail float64
	for _, s := range e.Samples {
		got += s.Delivered
		avail += s.Available
	}
	if avail == 0 {
		return 0
	}
	return got / avail
}

// RailExcursion returns the mean relative deviation of the load rail from
// vNominal — the price of tuning only the converter: a conventional
// tracker holds power but lets the rail wander.
func (e Evaluation) RailExcursion(vNominal float64) float64 {
	if len(e.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range e.Samples {
		sum += math.Abs(s.VLoad-vNominal) / vNominal
	}
	return sum / float64(len(e.Samples))
}

// Schedule is a time-varying environment: minute → env.
type Schedule func(minute float64) pv.Env

// Ramp returns a schedule sweeping irradiance linearly from g0 to g1 over
// the given duration at a fixed cell temperature.
func Ramp(g0, g1, durationMin, cellTemp float64) Schedule {
	return func(minute float64) pv.Env {
		t := minute / durationMin
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return pv.Env{Irradiance: g0 + (g1-g0)*t, CellTemp: cellTemp}
	}
}

// Evaluate runs an algorithm against a generator and a fixed load
// resistance over the schedule, stepping once per control period of
// periodMin minutes for durationMin minutes. Each period samples the
// generator's curve once; the step and the sample both read it.
func Evaluate(alg Algorithm, gen pv.Generator, rLoad float64, sched Schedule, durationMin, periodMin float64) Evaluation {
	circuit := power.NewCircuit(gen)
	alg.Reset()
	ev := Evaluation{Algorithm: alg.Name()}
	for t := 0.0; t < durationMin; t += periodMin {
		cv := gen.At(sched(t))
		alg.Step(circuit, &cv, rLoad)
		op := circuit.Operate(&cv, rLoad)
		ev.Samples = append(ev.Samples, Sample{
			Minute:    t,
			Available: circuit.AvailableMax(&cv),
			Delivered: op.PLoad,
			VLoad:     op.VLoad,
		})
	}
	return ev
}
