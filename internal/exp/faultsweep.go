package exp

import (
	"fmt"
	"strings"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/mathx"
)

// FaultSweepIntensities is the severity grid of FaultSweep.
var FaultSweepIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// FaultSweep's fixed mid-day injection window, minutes since midnight.
const (
	faultSweepT0 = 600.0 // unit: min
	faultSweepT1 = 720.0 // unit: min
)

// FaultSweepResult is the resilience table: green-energy utilization per
// policy as one fault kind's intensity rises over a fixed two-hour
// mid-day window (AZ in July, averaged over the option grid's workload
// mixes), plus the watchdog trips the MPPT runs accumulated.
type FaultSweepResult struct {
	Kind        string
	Intensities []float64
	Policies    []string // MPPTPolicies then the Fixed-Power baseline
	// Util[intensity index][policy index] is the mean utilization.
	Util [][]float64
	// Trips[intensity index] totals watchdog trips across the MPPT runs.
	Trips []int
}

// FaultSweep measures graceful degradation: the same day grid re-run at
// rising intensities of one injector kind (a fault.Kinds keyword). An
// unknown kind returns the ParseSpec error listing the valid kinds.
func FaultSweep(opts Options, kind string) (FaultSweepResult, error) {
	res := FaultSweepResult{
		Kind:        kind,
		Intensities: FaultSweepIntensities,
		Policies:    append(append([]string{}, MPPTPolicies...), "Fixed-75W"),
	}
	for _, inten := range res.Intensities {
		o := opts
		o.Faults = fmt.Sprintf("%s:t0=%g,t1=%g,i=%g", kind, faultSweepT0, faultSweepT1, inten)
		if _, err := fault.ParseSpec(o.Faults); err != nil {
			return res, fmt.Errorf("exp: fault sweep: %w", err)
		}
		l := NewLab(o)
		var row []float64
		trips := 0
		for _, policy := range MPPTPolicies {
			var us []float64
			for _, mix := range l.Opts.Mixes() {
				r := l.MPPT(atmos.AZ, atmos.Jul, mix, policy)
				us = append(us, r.Utilization())
				trips += r.Faults.WatchdogTrips
			}
			row = append(row, mathx.Mean(us))
		}
		var us []float64
		for _, mix := range l.Opts.Mixes() {
			us = append(us, l.Fixed(atmos.AZ, atmos.Jul, mix, 75).Utilization())
		}
		row = append(row, mathx.Mean(us))
		res.Util = append(res.Util, row)
		res.Trips = append(res.Trips, trips)
	}
	return res, nil
}

// Render draws one row per intensity.
func (r FaultSweepResult) Render() string {
	headers := append([]string{"intensity"}, r.Policies...)
	headers = append(headers, "watchdog trips")
	var rows [][]string
	for ii, inten := range r.Intensities {
		row := []string{f2(inten)}
		for _, u := range r.Util[ii] {
			row = append(row, pct(u))
		}
		row = append(row, fmt.Sprintf("%d", r.Trips[ii]))
		rows = append(rows, row)
	}
	title := fmt.Sprintf("Fault sweep: utilization vs %q intensity (AZ July, window %g-%g min)",
		r.Kind, faultSweepT0, faultSweepT1)
	return renderTable(title, headers, rows)
}

// CSV emits kind,intensity,policy,utilization,watchdog_trips rows.
func (r FaultSweepResult) CSV() string {
	var b strings.Builder
	b.WriteString("kind,intensity,policy,utilization,watchdog_trips\n")
	for ii, inten := range r.Intensities {
		for pi, policy := range r.Policies {
			fmt.Fprintf(&b, "%s,%.2f,%s,%.4f,%d\n",
				r.Kind, inten, policy, r.Util[ii][pi], r.Trips[ii])
		}
	}
	return b.String()
}
