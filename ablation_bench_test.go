// Benchmarks for the design-choice ablations of DESIGN.md §7 and the
// extension subsystems (conventional trackers, partial shading, LP bound,
// battery bank, full-system allocation).
package solarcore_test

import (
	"math"
	"testing"

	"solarcore"
	"solarcore/internal/dc"
	"solarcore/internal/exp"
	"solarcore/internal/fullsys"
	"solarcore/internal/lp"
	"solarcore/internal/mcore"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/report"
	"solarcore/internal/sched"
	"solarcore/internal/thermal"
	"solarcore/internal/tracker"
	"solarcore/internal/viz"
	"solarcore/internal/workload"
)

func BenchmarkAblationMargin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := exp.AblationMargin(quickLab()); len(a.Rows) != 5 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkAblationTrackingPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := exp.AblationTrackingPeriod(quickLab()); len(a.Rows) != 4 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkAblationDVFSGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := exp.AblationDVFSGranularity(quickLab()); len(a.Rows) != 4 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkAblationDeltaK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := exp.AblationDeltaK(quickLab()); len(a.Rows) != 4 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkAblationSensorNoise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := exp.AblationSensorNoise(quickLab()); len(a.Rows) != 5 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkTrackerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tc := exp.TrackerComparison(quickLab()); len(tc.Rows) != 4 {
			b.Fatal("bad comparison")
		}
	}
}

func BenchmarkConventionalTrackerStep(b *testing.B) {
	gen := pv.NewModule(pv.BP3180N())
	circuit := power.NewCircuit(gen)
	po := &tracker.PerturbObserve{}
	po.Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// One decision per control period, on that period's sample.
		cv := gen.At(pv.STC)
		po.Step(circuit, &cv, 2.0)
	}
}

func BenchmarkShadedStringGlobalMPP(b *testing.B) {
	s := pv.NewShadedString(pv.BP3180N(), []float64{1, 0.8, 0.3})
	for i := 0; i < b.N; i++ {
		if s.MPP(pv.STC).P <= 0 {
			b.Fatal("no MPP")
		}
	}
}

func BenchmarkLPUpperBound(b *testing.B) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, _ := workload.MixByName("HM2")
	m.Apply(chip)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.DVFSUpperBound(chip, 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatteryBankDay(b *testing.B) {
	trace := solarcore.GenerateWeather(solarcore.CO, solarcore.Jul, 0)
	day, err := solarcore.NewDay(trace, solarcore.BP3180N(), 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	mix, _ := workload.MixByName("M2")
	cfg := solarcore.Config{Day: day, Mix: mix}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank, err := power.NewBank(power.LeadAcidBank(1200))
		if err != nil {
			b.Fatal(err)
		}
		r, err := solarcore.NewRunner(cfg, solarcore.WithBank(bank, 0.95))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunBank(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullSystemFill(b *testing.B) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, _ := workload.MixByName("ML2")
	m.Apply(chip)
	chip.SetAllLevels(mcore.Gated)
	sys := &fullsys.System{}
	for i := 0; i < chip.NumCores(); i++ {
		sys.Devices = append(sys.Devices, &fullsys.CoreDevice{Chip: chip, Core: i, Weight: 1})
	}
	sys.Devices = append(sys.Devices,
		fullsys.NewDisk(0.05, func(min float64) float64 { return 40 }),
		fullsys.NewMemory(0.2, func(min float64) float64 { return 8 }),
		fullsys.NewNIC(0.3, func(min float64) float64 { return 0.7 }),
	)
	budgets := []float64{40, 90, 140}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.At(float64(i))
		sys.FillBudget(budgets[i%len(budgets)])
	}
}

func BenchmarkSchedulerRaise(b *testing.B) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, _ := workload.MixByName("HM2")
	m.Apply(chip)
	opt := sched.OptTPR{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip.SetAllLevels(2)
		chip.At(float64(i))
		if !opt.Raise(chip) {
			b.Fatal("raise failed")
		}
	}
}

func BenchmarkPerturbMath(b *testing.B) {
	// Sanity baseline: the cost of one guarded-Newton PV solve inside a
	// load line intersection, amortized over the full converter range.
	m := pv.NewModule(pv.BP3180N())
	env := pv.Env{Irradiance: 640, CellTemp: 38}
	k := 1.0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k += 0.01
		if k > 6 {
			k = 1
		}
		r := k * k * 2.0 * 0.96
		cv := m.At(env)
		v, _ := cv.ResistiveOperating(r)
		if math.IsNaN(v) {
			b.Fatal("NaN")
		}
	}
}

func BenchmarkAblationThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if a := exp.AblationThermal(quickLab()); len(a.Rows) != 4 {
			b.Fatal("bad ablation")
		}
	}
}

func BenchmarkConsolidationStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if c := exp.ConsolidationStudy(); len(c.Rows) != 5 {
			b.Fatal("bad study")
		}
	}
}

func BenchmarkForecastStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := exp.ForecastStudy(quickLab()); len(f.Patterns) != 16 {
			b.Fatal("bad study")
		}
	}
}

func BenchmarkThermalAdvance(b *testing.B) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, _ := workload.MixByName("H1")
	m.Apply(chip)
	chip.SetAllLevels(5)
	model, err := thermal.NewModel(chip, thermal.DefaultConfig(), 35)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		chip.At(float64(i))
		model.Advance(0.1, 35)
	}
}

func BenchmarkTwoDiodeMPP(b *testing.B) {
	m := pv.NewTwoDiodeModule(pv.BP3180N())
	env := pv.Env{Irradiance: 700, CellTemp: 40}
	for i := 0; i < b.N; i++ {
		if m.MPP(env).P <= 0 {
			b.Fatal("no MPP")
		}
	}
}

func BenchmarkHTMLReport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := exp.NewLab(exp.Options{Quick: true})
		if doc := report.Build(l, false); len(doc) < 10000 {
			b.Fatal("report too small")
		}
	}
}

func BenchmarkSVGLineChart(b *testing.B) {
	xs := make([]float64, 600)
	ys := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 50 + 40*math.Sin(float64(i)/30)
	}
	c := viz.LineChart{Title: "bench", Series: []viz.Series{{Name: "s", X: xs, Y: ys}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(c.SVG()) < 1000 {
			b.Fatal("empty chart")
		}
	}
}

func BenchmarkClusterFillBudget(b *testing.B) {
	var mixes []workload.Mix
	m, _ := workload.MixByName("HM2")
	mixes = append(mixes, m)
	c, err := dc.New(dc.Config{Nodes: 8, Mixes: mixes, NodeOverheadW: 25})
	if err != nil {
		b.Fatal(err)
	}
	budgets := []float64{100, 400, 900}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(float64(i))
		c.FillBudget(budgets[i%len(budgets)])
	}
}
