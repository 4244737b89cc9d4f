package exp

import (
	"fmt"

	"solarcore/internal/mathx"
)

// RobustnessResult re-derives the headline metrics across several
// independently generated weather days, showing that the paper-level
// conclusions are properties of the system and not of one random sky.
type RobustnessResult struct {
	Days        []int
	Utilization []float64 // MPPT&Opt grid-average utilization per day
	OptOverRR   []float64 // PTP gain per day
	OptOverIC   []float64
}

// Robustness runs the headline aggregates for `days` consecutive day
// indices using the given base options (a fresh lab per day).
func Robustness(opts Options, days int) RobustnessResult {
	if days < 1 {
		days = 1
	}
	var res RobustnessResult
	for d := 0; d < days; d++ {
		dayOpts := opts
		dayOpts.Day = d
		l := NewLab(dayOpts)
		// Figures 18 and 21 read the MPPT and battery cells only.
		l.prefetchDetached(false)
		f18 := Figure18(l)
		f21 := Figure21(l)
		res.Days = append(res.Days, d)
		res.Utilization = append(res.Utilization, f18.OverallAverage("MPPT&Opt"))
		res.OptOverRR = append(res.OptOverRR, f21.Average("MPPT&Opt")/f21.Average("MPPT&RR")-1)
		res.OptOverIC = append(res.OptOverIC, f21.Average("MPPT&Opt")/f21.Average("MPPT&IC")-1)
	}
	return res
}

// Render draws per-day values with a mean ± spread summary line.
func (r RobustnessResult) Render() string {
	var rows [][]string
	for i, d := range r.Days {
		rows = append(rows, []string{
			fmt.Sprintf("day %d", d),
			pct(r.Utilization[i]), pct(r.OptOverRR[i]), pct(r.OptOverIC[i]),
		})
	}
	rows = append(rows, []string{
		"mean (min..max)",
		spread(r.Utilization), spread(r.OptOverRR), spread(r.OptOverIC),
	})
	return renderTable("Robustness: headline metrics across independent weather days",
		[]string{"weather seed", "utilization", "Opt vs RR", "Opt vs IC"}, rows)
}

func spread(xs []float64) string {
	return fmt.Sprintf("%s (%s..%s)", pct(mathx.Mean(xs)), pct(mathx.Min(xs)), pct(mathx.Max(xs)))
}
