package atmos

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"solarcore/internal/mathx"
)

// Sample is one meteorological observation.
type Sample struct {
	Minute     float64 // minutes after midnight, local time
	Irradiance float64 // W/m² on the panel plane
	AmbientC   float64 // ambient temperature, °C
}

// Trace is a uniformly sampled daytime record for one site and season.
type Trace struct {
	Site    Site
	Season  Season
	StepMin float64 // sampling step in minutes
	Samples []Sample
}

// Duration returns the covered timespan in minutes.
//
// unit: min
func (t *Trace) Duration() float64 {
	if len(t.Samples) < 2 {
		return 0
	}
	return t.Samples[len(t.Samples)-1].Minute - t.Samples[0].Minute
}

// At returns the irradiance and ambient temperature at the given minute
// after midnight, linearly interpolated between samples and clamped to the
// trace endpoints.
//
// unit: minute=min, irradiance=W/m², ambientC=°C
func (t *Trace) At(minute float64) (irradiance, ambientC float64) {
	n := len(t.Samples)
	if n == 0 {
		return 0, 0
	}
	first := t.Samples[0]
	if n == 1 || minute <= first.Minute {
		return first.Irradiance, first.AmbientC
	}
	last := t.Samples[n-1]
	if minute >= last.Minute {
		return last.Irradiance, last.AmbientC
	}
	pos := (minute - first.Minute) / t.StepMin
	i := int(pos)
	if i >= n-1 {
		i = n - 2
	}
	frac := pos - float64(i)
	a, b := t.Samples[i], t.Samples[i+1]
	return mathx.Lerp(a.Irradiance, b.Irradiance, frac), mathx.Lerp(a.AmbientC, b.AmbientC, frac)
}

// InsolationKWh integrates irradiance over the trace and returns the daily
// insolation in kWh/m² (trapezoidal rule).
//
// unit: kWh/m²
func (t *Trace) InsolationKWh() float64 {
	if len(t.Samples) < 2 {
		return 0
	}
	wh := 0.0
	for i := 1; i < len(t.Samples); i++ {
		a, b := t.Samples[i-1], t.Samples[i]
		wh += 0.5 * (a.Irradiance + b.Irradiance) * (b.Minute - a.Minute) / 60
	}
	return wh / 1000
}

// PeakIrradiance returns the maximum sampled irradiance.
//
// unit: W/m²
func (t *Trace) PeakIrradiance() float64 {
	peak := 0.0
	for _, s := range t.Samples {
		if s.Irradiance > peak {
			peak = s.Irradiance
		}
	}
	return peak
}

// Label returns the "Jan@AZ" style identifier the paper uses for weather
// patterns.
func (t *Trace) Label() string { return t.Season.String() + "@" + t.Site.Code }

// WriteCSV writes the trace in the column layout minute,irradiance,ambient_c
// with a header row, so traces can be inspected or replaced by measured MIDC
// exports.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"minute", "irradiance_wm2", "ambient_c"}); err != nil {
		return err
	}
	for _, s := range t.Samples {
		rec := []string{
			strconv.FormatFloat(s.Minute, 'f', 2, 64),
			strconv.FormatFloat(s.Irradiance, 'f', 2, 64),
			strconv.FormatFloat(s.AmbientC, 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV (or an equivalent MIDC export).
// Samples must be uniformly spaced and in time order.
func ReadCSV(r io.Reader, site Site, season Season) (*Trace, error) {
	cr := csv.NewReader(r)
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("atmos: reading trace CSV: %w", err)
	}
	if len(recs) < 1 {
		return nil, fmt.Errorf("atmos: empty trace CSV")
	}
	if recs[0][0] == "minute" {
		recs = recs[1:]
	}
	tr := &Trace{Site: site, Season: season}
	for i, rec := range recs {
		if len(rec) != 3 {
			return nil, fmt.Errorf("atmos: row %d: want 3 columns, got %d", i+1, len(rec))
		}
		var s Sample
		if s.Minute, err = strconv.ParseFloat(rec[0], 64); err != nil {
			return nil, fmt.Errorf("atmos: row %d minute: %w", i+1, err)
		}
		if s.Irradiance, err = strconv.ParseFloat(rec[1], 64); err != nil {
			return nil, fmt.Errorf("atmos: row %d irradiance: %w", i+1, err)
		}
		if s.AmbientC, err = strconv.ParseFloat(rec[2], 64); err != nil {
			return nil, fmt.Errorf("atmos: row %d ambient: %w", i+1, err)
		}
		tr.Samples = append(tr.Samples, s)
	}
	if len(tr.Samples) >= 2 {
		tr.StepMin = tr.Samples[1].Minute - tr.Samples[0].Minute
		for i := 1; i < len(tr.Samples); i++ {
			gap := tr.Samples[i].Minute - tr.Samples[i-1].Minute
			if gap <= 0 || math.Abs(gap-tr.StepMin) > 1e-6 {
				return nil, fmt.Errorf("atmos: non-uniform sampling at row %d", i+1)
			}
		}
	}
	return tr, nil
}
