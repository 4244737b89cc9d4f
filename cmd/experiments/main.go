// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them in the paper's order, ending with the
// headline comparison. With -csv DIR it additionally writes raw data files
// for external plotting.
//
// Usage:
//
//	experiments [-quick] [-step minutes] [-day n] [-csv dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"solarcore"
	"solarcore/internal/exp"
	"solarcore/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	quick := flag.Bool("quick", false, "reduced workload grid and coarser sampling (fast smoke run)")
	step := flag.Float64("step", 0, "simulation sub-sampling step in minutes (default 1, quick 2)")
	day := flag.Int("day", 0, "weather day index within each evaluated period")
	csvDir := flag.String("csv", "", "directory to write raw CSV data into (created if missing)")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablation sweeps")
	htmlOut := flag.String("html", "", "write a self-contained HTML report (inline SVG charts) to this path")
	flag.Parse()
	// The day index follows the RunSpec rule every served run follows.
	if err := (solarcore.RunSpec{Day: *day}).Validate(); err != nil {
		log.Fatalf("-day: %v", err)
	}

	opts := exp.Options{Quick: *quick, StepMin: *step, Day: *day}
	lab := exp.NewLab(opts)

	start := time.Now()
	fmt.Printf("SolarCore evaluation — regenerating all tables and figures (quick=%v)\n\n", *quick)

	f1 := exp.Figure1()
	fmt.Println(f1.Render())
	f6 := exp.Figure6(256)
	fmt.Println(f6.Render())
	f7 := exp.Figure7(256)
	fmt.Println(f7.Render())

	// Populate the shared policy grid in parallel before the dependent
	// figures read it.
	lab.Prefetch()

	f13 := exp.Figure13(lab)
	f14 := exp.Figure14(lab)
	t7 := exp.Table7(lab)
	f15 := exp.Figure15(lab)
	f16 := exp.Figure16(lab)
	f17 := exp.Figure17(lab)
	f18 := exp.Figure18(lab)
	f19 := exp.Figure19(lab)
	f20 := exp.Figure20(lab)
	f21 := exp.Figure21(lab)
	fmt.Println(f13.Render())
	fmt.Println(f14.Render())
	fmt.Println(t7.Render())
	fmt.Println(f15.Render())
	fmt.Println(f16.Render())
	fmt.Println(f17.Render())
	fmt.Println(f18.Render())
	fmt.Println(f19.Render())
	fmt.Println(f20.Render())
	fmt.Println(f21.Render())
	fmt.Println(exp.Headlines(lab).Render())

	csvFiles := map[string]string{
		"figure1_fixed_load.csv":    exp.Figure1().CSV(),
		"figure6_iv_pv.csv":         f6.CSV(),
		"figure7_iv_pv.csv":         f7.CSV(),
		"figure13_tracking.csv":     f13.CSV(),
		"figure14_tracking.csv":     f14.CSV(),
		"table7_tracking_err.csv":   t7.CSV(),
		"figure15_durations.csv":    f15.CSV(),
		"figure16_fixed_energy.csv": f16.CSV(),
		"figure17_fixed_ptp.csv":    f17.CSV(),
		"figure18_utilization.csv":  f18.CSV(),
		"figure19_duration.csv":     f19.CSV(),
		"figure20_buckets.csv":      f20.CSV(),
		"figure21_norm_ptp.csv":     f21.CSV(),
	}

	if *ablations {
		sweeps := []exp.AblationResult{
			exp.AblationMargin(lab),
			exp.AblationTrackingPeriod(lab),
			exp.AblationDVFSGranularity(lab),
			exp.AblationDeltaK(lab),
			exp.AblationSensorNoise(lab),
			exp.AblationEventTracking(lab),
		}
		names := []string{"margin", "tracking_period", "dvfs_granularity", "delta_k", "sensor_noise", "event_tracking"}
		for i, a := range sweeps {
			fmt.Println(a.Render())
			csvFiles["ablation_"+names[i]+".csv"] = a.CSV()
		}
		tc := exp.TrackerComparison(lab)
		fmt.Println(tc.Render())
		csvFiles["tracker_comparison.csv"] = tc.CSV()
		fc := exp.ForecastStudy(lab)
		fmt.Println(fc.Render())
		csvFiles["forecast_study.csv"] = fc.CSV()
		at := exp.AblationThermal(lab)
		fmt.Println(at.Render())
		csvFiles["ablation_thermal.csv"] = at.CSV()
		cs := exp.ConsolidationStudy()
		fmt.Println(cs.Render())
		csvFiles["consolidation.csv"] = cs.CSV()
		su := exp.Sustainability(lab)
		fmt.Println(su.Render())
		csvFiles["sustainability.csv"] = su.CSV()
		ms := exp.MountStudy(lab)
		fmt.Println(ms.Render())
		csvFiles["mount_study.csv"] = ms.CSV()
		rb := exp.Robustness(opts, 3)
		fmt.Println(rb.Render())
		csvFiles["robustness.csv"] = rb.CSV()
		for _, kind := range []string{"cloud", "sensor-drop"} {
			fsw, err := exp.FaultSweep(opts, kind)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(fsw.Render())
			csvFiles["fault_sweep_"+kind+".csv"] = fsw.CSV()
		}
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir, csvFiles); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d raw data files written to %s\n", len(csvFiles), *csvDir)
	}
	if *htmlOut != "" {
		doc := report.Build(lab, *ablations)
		if err := os.WriteFile(*htmlOut, []byte(doc), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("HTML report written to %s\n", *htmlOut)
	}
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))
}

func writeCSVs(dir string, files map[string]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			return err
		}
	}
	return nil
}
