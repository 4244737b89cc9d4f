// Package sim is the discrete-time system simulator: it replays a
// meteorological day against the PV array, the converter circuit, the
// multi-core chip and a power-management policy, and produces the metrics
// the paper's evaluation reports — green-energy utilization, effective
// operation duration, per-period tracking error, and the performance-time
// product (PTP).
package sim

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/pv"
)

// SolarDay is a meteorological trace bound to a concrete PV array, with the
// array's maximum power point precomputed at every sample so that many
// policy runs over the same day share the expensive MPP solves. The day
// reads each sample's minute and irradiance from Trace, so the trace must
// not change once bound.
type SolarDay struct {
	Trace  *atmos.Trace
	Gen    pv.Generator
	Params pv.ModuleParams

	samples []daySample
}

// daySample is what the day derives for one trace sample: the cell
// temperature and the array's maximum power there.
type daySample struct {
	cellTemp float64 // unit: °C
	mppW     float64 // unit: W
}

// NewSolarDay binds a trace to a series×parallel array of the given module
// and precomputes the per-sample cell temperature and MPP.
func NewSolarDay(tr *atmos.Trace, params pv.ModuleParams, series, parallel int) (*SolarDay, error) {
	return NewSolarDayGen(tr, pv.NewArray(params, series, parallel), params)
}

// NewSolarDayGen binds a trace to an arbitrary generator — a partially
// shaded string, for instance — using params only for the cell-temperature
// model. The precomputed MPP is the generator's GLOBAL maximum.
func NewSolarDayGen(tr *atmos.Trace, gen pv.Generator, params pv.ModuleParams) (*SolarDay, error) {
	if tr == nil || len(tr.Samples) < 2 {
		return nil, fmt.Errorf("sim: trace with at least 2 samples required")
	}
	if gen == nil {
		return nil, fmt.Errorf("sim: generator required")
	}
	d := &SolarDay{Trace: tr, Gen: gen, Params: params, samples: make([]daySample, len(tr.Samples))}
	for i, s := range tr.Samples {
		env := pv.Env{
			Irradiance: s.Irradiance,
			CellTemp:   params.CellTemperature(s.AmbientC, s.Irradiance),
		}
		c := gen.At(env)
		d.samples[i] = daySample{cellTemp: env.CellTemp, mppW: c.MPP().P}
	}
	return d, nil
}

// StartMinute returns the first covered minute of the day.
func (d *SolarDay) StartMinute() float64 { return d.Trace.Samples[0].Minute }

// EndMinute returns the last covered minute of the day.
func (d *SolarDay) EndMinute() float64 { return d.Trace.Samples[len(d.Trace.Samples)-1].Minute }

// DaytimeMinutes returns the covered daytime span.
func (d *SolarDay) DaytimeMinutes() float64 { return d.EndMinute() - d.StartMinute() }

// locate returns the sample index at or before minute and the interpolation
// fraction toward the next sample.
func (d *SolarDay) locate(minute float64) (int, float64) {
	n := len(d.samples)
	start := d.StartMinute()
	if minute <= start {
		return 0, 0
	}
	if minute >= d.EndMinute() {
		return n - 2, 1
	}
	pos := (minute - start) / d.Trace.StepMin
	i := int(pos)
	if i >= n-1 {
		i = n - 2
	}
	return i, pos - float64(i)
}

// EnvAt returns the interpolated panel environment at the given minute.
func (d *SolarDay) EnvAt(minute float64) pv.Env {
	i, frac := d.locate(minute)
	ga, gb := d.Trace.Samples[i].Irradiance, d.Trace.Samples[i+1].Irradiance
	ta, tb := d.samples[i].cellTemp, d.samples[i+1].cellTemp
	return pv.Env{
		Irradiance: ga + (gb-ga)*frac,
		CellTemp:   ta + (tb-ta)*frac,
	}
}

// MPPAt returns the interpolated maximum available panel power (W) at the
// given minute.
func (d *SolarDay) MPPAt(minute float64) float64 {
	i, frac := d.locate(minute)
	return d.samples[i].mppW + (d.samples[i+1].mppW-d.samples[i].mppW)*frac
}

// MPPEnergyWh integrates the maximum power point over the day — the
// "theoretical maximum solar energy supply" denominator of the paper's
// utilization metric.
func (d *SolarDay) MPPEnergyWh() float64 {
	wh := 0.0
	for i := 1; i < len(d.samples); i++ {
		a, b := d.samples[i-1], d.samples[i]
		wh += 0.5 * (a.mppW + b.mppW) * (d.Trace.Samples[i].Minute - d.Trace.Samples[i-1].Minute) / 60
	}
	return wh
}
