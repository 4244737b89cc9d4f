package exp

import (
	"fmt"

	"solarcore/internal/atmos"
	"solarcore/internal/mathx"
	"solarcore/internal/workload"
)

// DeclineClass labels how fast effective operation duration falls as the
// power-transfer threshold rises (the three panels of Figure 15).
type DeclineClass string

// Figure 15's three duration-decline classes.
const (
	DeclineSlow   DeclineClass = "slow"
	DeclineLinear DeclineClass = "linear"
	DeclineRapid  DeclineClass = "rapid"
)

// Figure15Row is one weather pattern's duration-vs-threshold curve.
type Figure15Row struct {
	Label     string // "Apr@AZ"
	Durations []float64
	// Normalized is each duration divided by the duration at the lowest
	// threshold, the y-axis of Figure 15.
	Normalized []float64
	Class      DeclineClass
}

// Figure15Result is the full sweep.
type Figure15Result struct {
	Budgets []float64
	Rows    []Figure15Row
}

// figure15Mix names the workload mix Figure 15 sweeps.
const figure15Mix = "M1"

// Figure15 sweeps the fixed power-transfer threshold over every site and
// season and classifies each weather pattern's duration decline.
func Figure15(l *Lab) Figure15Result {
	mix, err := workload.MixByName(figure15Mix)
	if err != nil {
		panic(err)
	}
	res := Figure15Result{Budgets: FixedBudgets}
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			row := Figure15Row{Label: season.String() + "@" + site.Code}
			for _, b := range FixedBudgets {
				row.Durations = append(row.Durations, l.Fixed(site, season, mix, b).SolarMin)
			}
			base := row.Durations[0]
			for _, d := range row.Durations {
				if base > 0 {
					row.Normalized = append(row.Normalized, d/base)
				} else {
					row.Normalized = append(row.Normalized, 0)
				}
			}
			row.Class = classifyDecline(row.Normalized)
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// classifyDecline buckets a normalized duration curve: slow decline keeps
// meaningful duration even at the highest threshold; rapid decline has
// already lost half its duration by the middle threshold.
func classifyDecline(normalized []float64) DeclineClass {
	last := normalized[len(normalized)-1]
	mid := normalized[len(normalized)/2]
	switch {
	case last >= 0.30:
		return DeclineSlow
	case mid <= 0.50:
		return DeclineRapid
	default:
		return DeclineLinear
	}
}

// Render draws one row per weather pattern.
func (r Figure15Result) Render() string {
	headers := []string{"pattern"}
	for _, b := range r.Budgets {
		headers = append(headers, fmt.Sprintf("%gW", b))
	}
	headers = append(headers, "class")
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{row.Label}
		for _, n := range row.Normalized {
			cells = append(cells, f2(n))
		}
		cells = append(cells, string(row.Class))
		rows = append(rows, cells)
	}
	return renderTable("Figure 15: normalized effective operation duration vs power-transfer threshold", headers, rows)
}

// FixedSweepResult holds Figures 16 and 17: per site and season, the
// solar energy (or PTP) of each fixed budget normalized to SolarCore
// (MPPT&Opt) on the same day, averaged across the workload grid.
type FixedSweepResult struct {
	Title   string
	Metric  string // "energy" or "PTP"
	Budgets []float64
	// Norm[site][season][budget index]
	Norm map[string]map[string][]float64
}

func fixedSweep(l *Lab, metric string) FixedSweepResult {
	res := FixedSweepResult{
		Metric:  metric,
		Budgets: FixedBudgets,
		Norm:    map[string]map[string][]float64{},
	}
	mixes := l.Opts.Mixes()
	for _, site := range atmos.Sites {
		res.Norm[site.Code] = map[string][]float64{}
		for _, season := range atmos.Seasons {
			norm := make([]float64, len(FixedBudgets))
			for bi, b := range FixedBudgets {
				var ratios []float64
				for _, mix := range mixes {
					opt := l.MPPT(site, season, mix, "MPPT&Opt")
					fx := l.Fixed(site, season, mix, b)
					var num, den float64
					if metric == "PTP" {
						num, den = fx.PTP(), opt.PTP()
					} else {
						num, den = fx.SolarWh, opt.SolarWh
					}
					if den > 0 {
						ratios = append(ratios, num/den)
					}
				}
				norm[bi] = mathx.Mean(ratios)
			}
			res.Norm[site.Code][season.String()] = norm
		}
	}
	return res
}

// Figure16 reports solar energy drawn under fixed budgets, normalized to
// SolarCore (Figure 16).
func Figure16(l *Lab) FixedSweepResult {
	r := fixedSweep(l, "energy")
	r.Title = "Figure 16: normalized solar energy under fixed power budgets"
	return r
}

// Figure17 reports the performance-time product under fixed budgets,
// normalized to SolarCore (Figure 17).
func Figure17(l *Lab) FixedSweepResult {
	r := fixedSweep(l, "PTP")
	r.Title = "Figure 17: normalized PTP under fixed power budgets"
	return r
}

// BestRatio returns the best normalized value across every site, season
// and budget — the quantity behind the paper's "even the optimal fixed
// budget stays below 70 % of SolarCore" claim.
func (r FixedSweepResult) BestRatio() float64 {
	best := 0.0
	for _, seasons := range r.Norm {
		for _, vals := range seasons {
			for _, v := range vals {
				if v > best {
					best = v
				}
			}
		}
	}
	return best
}

// Render draws one row per site/season.
func (r FixedSweepResult) Render() string {
	headers := []string{"site", "month"}
	for _, b := range r.Budgets {
		headers = append(headers, fmt.Sprintf("%gW", b))
	}
	var rows [][]string
	for _, site := range atmos.Sites {
		for _, season := range atmos.Seasons {
			row := []string{site.Code, season.String()}
			for _, v := range r.Norm[site.Code][season.String()] {
				row = append(row, f2(v))
			}
			rows = append(rows, row)
		}
	}
	return renderTable(fmt.Sprintf("%s (best overall: %.2f)", r.Title, r.BestRatio()), headers, rows)
}
