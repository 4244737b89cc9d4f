package atmos

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadMIDC parses an NREL Measurement and Instrumentation Data Center
// daily export — the data source of the paper's Section 5 — into a Trace.
// MIDC exports are comma-separated with a header row naming each
// instrument column; time is a local "HH:MM" (or zero-padded "HHMM")
// column, irradiance is the station's global horizontal pyranometer, and
// air temperature comes from the met sensors, e.g.:
//
//	DATE (MM/DD/YYYY),MST,Global Horizontal [W/m^2],Air Temperature [deg C]
//	1/15/2009,07:30,12.4,3.2
//
// Column matching is by case-insensitive substring ("global horizontal",
// "air temp"), so station-to-station header variations parse unchanged.
// Samples outside the paper's 7:30–17:30 evaluation window are dropped,
// and the remainder must be uniformly spaced.
func ReadMIDC(r io.Reader, site Site, season Season) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("atmos: reading MIDC export: %w", err)
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("atmos: MIDC export has no data rows")
	}

	timeCol, ghiCol, tempCol := -1, -1, -1
	for i, h := range recs[0] {
		lh := strings.ToLower(h)
		switch {
		case timeCol < 0 && (lh == "mst" || lh == "est" || lh == "pst" || lh == "cst" ||
			strings.Contains(lh, "time")):
			timeCol = i
		case ghiCol < 0 && strings.Contains(lh, "global horizontal"):
			ghiCol = i
		case tempCol < 0 && strings.Contains(lh, "air temp"):
			tempCol = i
		}
	}
	if timeCol < 0 || ghiCol < 0 {
		return nil, fmt.Errorf("atmos: MIDC header lacks time or global-horizontal columns: %v", recs[0])
	}

	tr := &Trace{Site: site, Season: season}
	for i, rec := range recs[1:] {
		need := ghiCol
		if timeCol > need {
			need = timeCol
		}
		if tempCol > need {
			need = tempCol
		}
		if len(rec) <= need {
			return nil, fmt.Errorf("atmos: MIDC row %d too short", i+2)
		}
		minute, err := parseMIDCTime(rec[timeCol])
		if err != nil {
			return nil, fmt.Errorf("atmos: MIDC row %d: %w", i+2, err)
		}
		if minute < DayStartMinute || minute > DayEndMinute {
			continue
		}
		ghi, err := strconv.ParseFloat(strings.TrimSpace(rec[ghiCol]), 64)
		if err != nil {
			return nil, fmt.Errorf("atmos: MIDC row %d irradiance: %w", i+2, err)
		}
		if ghi < 0 {
			ghi = 0 // night-time pyranometer offsets read slightly negative
		}
		temp := 25.0
		if tempCol >= 0 {
			temp, err = strconv.ParseFloat(strings.TrimSpace(rec[tempCol]), 64)
			if err != nil {
				return nil, fmt.Errorf("atmos: MIDC row %d temperature: %w", i+2, err)
			}
		}
		tr.Samples = append(tr.Samples, Sample{Minute: float64(minute), Irradiance: ghi, AmbientC: temp})
	}
	if len(tr.Samples) < 2 {
		return nil, fmt.Errorf("atmos: MIDC export has no samples inside the 7:30-17:30 window")
	}
	tr.StepMin = tr.Samples[1].Minute - tr.Samples[0].Minute
	for i := 1; i < len(tr.Samples); i++ {
		gap := tr.Samples[i].Minute - tr.Samples[i-1].Minute
		if gap <= 0 || math.Abs(gap-tr.StepMin) > 1e-6 {
			return nil, fmt.Errorf("atmos: MIDC samples not uniformly spaced at row %d", i+1)
		}
	}
	return tr, nil
}

// parseMIDCTime accepts "HH:MM" and zero-padded "HHMM" local times.
func parseMIDCTime(s string) (int, error) {
	s = strings.TrimSpace(s)
	var hh, mm int
	switch {
	case strings.Contains(s, ":"):
		parts := strings.SplitN(s, ":", 2)
		h, err := strconv.Atoi(parts[0])
		if err != nil {
			return 0, fmt.Errorf("bad time %q", s)
		}
		m, err := strconv.Atoi(parts[1])
		if err != nil {
			return 0, fmt.Errorf("bad time %q", s)
		}
		hh, mm = h, m
	case len(s) == 4:
		h, err := strconv.Atoi(s[:2])
		if err != nil {
			return 0, fmt.Errorf("bad time %q", s)
		}
		m, err := strconv.Atoi(s[2:])
		if err != nil {
			return 0, fmt.Errorf("bad time %q", s)
		}
		hh, mm = h, m
	default:
		return 0, fmt.Errorf("bad time %q", s)
	}
	if hh < 0 || hh > 23 || mm < 0 || mm > 59 {
		return 0, fmt.Errorf("time %q out of range", s)
	}
	return hh*60 + mm, nil
}
