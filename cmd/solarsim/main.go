// Command solarsim runs a single configurable day of solar-powered
// multi-core simulation and reports the paper's metrics.
//
// Usage:
//
//	solarsim [-site AZ] [-season Jul] [-mix HM2] [-policy MPPT&Opt] \
//	         [-day 0] [-step 1] [-fixed watts] [-battery U|L] [-series] \
//	         [-faults spec] [-trace out.jsonl] [-metrics]
//
// -fixed and -battery select the baseline runners instead of an MPPT
// policy. -series prints the per-minute budget/actual trace as CSV.
// -faults installs a deterministic fault-injection schedule, e.g.
// "cloud:t0=600,t1=720,i=0.8;sensor-drop:t0=600,t1=660,i=1".
// -trace streams every simulation event (tracking periods, DVFS
// reallocations, sub-sample ticks, fault windows) to a JSONL file in the
// DESIGN.md §10 schema; -metrics prints the aggregated metrics registry
// as JSON. Every name-resolving flag is validated before any simulation
// output, so a bad invocation exits non-zero with a single-line error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"solarcore"
	"solarcore/internal/atmos"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
	"solarcore/internal/thermal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// pf and pln write best-effort CLI output; a console write error is not
// actionable mid-run, so it is discarded explicitly.
func pf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func pln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...)
}

// fail prints one prefixed error line and returns the exit code.
func fail(stderr io.Writer, format string, args ...any) int {
	pf(stderr, "solarsim: "+format+"\n", args...)
	return 1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("solarsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	siteCode := fs.String("site", "AZ", "site code: AZ, CO, NC or TN")
	seasonName := fs.String("season", "Jul", "season: Jan, Apr, Jul or Oct")
	mixName := fs.String("mix", "HM2", "Table 5 workload mix (H1..ML2)")
	policy := fs.String("policy", solarcore.PolicyOpt, "MPPT policy: MPPT&IC, MPPT&RR or MPPT&Opt")
	day := fs.Int("day", 0, "weather day index")
	days := fs.Int("days", 1, "simulate this many consecutive days (MPPT policies only)")
	step := fs.Float64("step", 1, "sub-sampling step in minutes")
	fixed := fs.Float64("fixed", 0, "run the Fixed-Power baseline at this budget (W) instead of MPPT")
	battery := fs.String("battery", "", "run the battery baseline: U (92% eff) or L (81% eff)")
	series := fs.Bool("series", false, "print the per-minute budget/actual trace as CSV")
	mount := fs.String("mount", "fixed", "panel mount: fixed or tracker (single-axis)")
	shade := fs.String("shade", "", "comma-separated per-bypass-group irradiance scales, e.g. 1,0.3,1")
	tmax := fs.Float64("tmax", 0, "thermal trip point in °C (0 = unconstrained)")
	faultsSpec := fs.String("faults", "", "fault-injection schedule: kind:t0=M,t1=M,i=F[,seed=N][;...]")
	tracePath := fs.String("trace", "", "stream simulation events to this JSONL file")
	metrics := fs.Bool("metrics", false, "print the aggregated metrics registry as JSON after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Fail fast: every name-resolving flag is validated here, before any
	// simulation starts or output is written.
	site, err := atmos.SiteByCode(*siteCode)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	season, err := atmos.SeasonByName(*seasonName)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	mix, err := solarcore.MixByName(*mixName)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	faultSched, err := solarcore.ParseFaults(*faultsSpec)
	if err != nil {
		return fail(stderr, "%v", err)
	}
	if *fixed <= 0 && *battery == "" {
		if _, perr := solarcore.NewRunner(solarcore.Config{}, solarcore.WithPolicy(*policy)); perr != nil {
			return fail(stderr, "%v", perr)
		}
	}

	trace := solarcore.GenerateWeather(site, season, *day)
	switch *mount {
	case "fixed":
	case "tracker":
		trace = trace.WithMount(atmos.SingleAxisTracker)
	default:
		return fail(stderr, "unknown mount %q (want fixed or tracker)", *mount)
	}

	var solarDay *solarcore.SolarDay
	var dayErr error
	if *shade != "" {
		var scales []float64
		for _, part := range strings.Split(*shade, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fail(stderr, "bad -shade value: %v", err)
			}
			scales = append(scales, v)
		}
		gen := pv.PartiallyShadedModule(solarcore.BP3180N(), scales)
		solarDay, dayErr = sim.NewSolarDayGen(trace, gen, solarcore.BP3180N())
	} else {
		solarDay, dayErr = solarcore.NewDay(trace, solarcore.BP3180N(), 1, 1)
	}
	if dayErr != nil {
		return fail(stderr, "%v", dayErr)
	}
	cfg := solarcore.Config{Day: solarDay, Mix: mix, StepMin: *step, KeepSeries: *series}
	if *shade != "" {
		cfg.ScanPoints = 24 // multi-peak curve: enable the global ratio scan
	}
	if *tmax > 0 {
		tc := thermal.DefaultConfig()
		tc.TMaxC = *tmax
		cfg.Thermal = &tc
	}

	// Observability: -trace streams JSONL events, -metrics folds the same
	// events into a registry printed after the run.
	opts := []solarcore.RunnerOption{solarcore.WithFaults(faultSched)}
	var sink *solarcore.JSONLSink
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		traceFile = f
		sink = solarcore.NewJSONLSink(f)
		opts = append(opts, solarcore.WithObserver(sink))
	}
	var reg *solarcore.Registry
	if *metrics {
		reg = solarcore.NewRegistry()
		opts = append(opts, solarcore.WithObserver(solarcore.MetricsObserver(reg)))
	}
	finish := func() int {
		if sink != nil {
			if err := sink.Flush(); err != nil {
				return fail(stderr, "%v", err)
			}
			if err := traceFile.Close(); err != nil {
				return fail(stderr, "%v", err)
			}
		}
		if reg != nil {
			pln(stdout)
			pln(stdout, "metrics:")
			if err := reg.Snapshot().WriteJSON(stdout); err != nil {
				return fail(stderr, "%v", err)
			}
		}
		return 0
	}

	switch {
	case *fixed > 0:
		opts = append(opts, solarcore.WithFixedBudget(*fixed))
	case *battery == "U":
		opts = append(opts, solarcore.WithBattery(solarcore.BatteryUpperEff))
	case *battery == "L":
		opts = append(opts, solarcore.WithBattery(solarcore.BatteryLowerEff))
	case *battery != "":
		return fail(stderr, "unknown battery bracket %q (want U or L)", *battery)
	default:
		opts = append(opts, solarcore.WithPolicy(*policy))
	}
	runner, err := solarcore.NewRunner(cfg, opts...)
	if err != nil {
		return fail(stderr, "%v", err)
	}

	if *days > 1 {
		if *fixed > 0 || *battery != "" {
			return fail(stderr, "-days applies to MPPT policies only")
		}
		traces := solarcore.GenerateWeatherRun(site, season, *days)
		var solarDays []*solarcore.SolarDay
		for _, tr := range traces {
			d, err := solarcore.NewDay(tr, solarcore.BP3180N(), 1, 1)
			if err != nil {
				return fail(stderr, "%v", err)
			}
			solarDays = append(solarDays, d)
		}
		sr, err := runner.RunSeries(solarDays)
		if err != nil {
			return fail(stderr, "%v", err)
		}
		pf(stdout, "deployment   : %d days of %s at %s, mix %s, %s\n", *days, season, site.Name, mix.Name, *policy)
		pf(stdout, "utilization  : %.1f%% mean\n", sr.MeanUtilization()*100)
		pf(stdout, "duration     : %.1f%% of daytime mean\n", sr.MeanEffectiveDuration()*100)
		pf(stdout, "solar energy : %.0f Wh total\n", sr.TotalSolarWh())
		pf(stdout, "performance  : %.0f giga-instructions total (PTP)\n", sr.TotalPTP())
		pf(stdout, "tracking err : %.1f%% pooled geometric mean\n", sr.TrackErrGeoMean()*100)
		return finish()
	}

	res, err := runner.Run()
	if err != nil {
		return fail(stderr, "%v", err)
	}

	pf(stdout, "run          : %s, mix %s, %s\n", res.Policy, res.Mix, res.Label)
	pf(stdout, "insolation   : %.2f kWh/m² (panel MPP energy %.0f Wh)\n", trace.InsolationKWh(), res.MPPEnergyWh)
	pf(stdout, "solar energy : %.0f Wh consumed (%.1f%% utilization)\n", res.SolarWh, res.Utilization()*100)
	pf(stdout, "utility      : %.0f Wh\n", res.UtilityWh)
	pf(stdout, "duration     : %.0f of %.0f daytime minutes on solar (%.1f%%)\n",
		res.SolarMin, res.DaytimeMin, res.EffectiveDuration()*100)
	pf(stdout, "performance  : %.0f giga-instructions on solar (PTP), %.0f total\n", res.PTP(), res.GInstrTotal)
	if len(res.PeriodErrs) > 0 {
		pf(stdout, "tracking err : %.1f%% (geometric mean over %d periods, %d overloads)\n",
			res.TrackErrGeoMean()*100, len(res.PeriodErrs), res.Overloads)
	}
	if res.ThrottleEvents > 0 {
		pf(stdout, "thermal      : %d throttle events, peak %.1f °C\n", res.ThrottleEvents, res.PeakTempC)
	}
	// An armed schedule always reports, so a window no sample saw open
	// reads "0 windows" rather than vanishing from the output.
	if faultSched.Armed() {
		f := res.Faults
		pf(stdout, "faults       : %d windows, %d brownout sheds, %d watchdog trips, %d fallback periods, %d solver faults, %.0f min to recover\n",
			f.Injected, f.BrownoutSheds, f.WatchdogTrips, f.FallbackPeriods, f.SolverFaults, f.RecoveryMin)
	}

	if *series {
		pln(stdout)
		pln(stdout, "minute,budget_w,actual_w,on_solar")
		for _, p := range res.Series {
			pf(stdout, "%.1f,%.2f,%.2f,%t\n", p.Minute, p.BudgetW, p.ActualW, p.OnSolar)
		}
	}
	return finish()
}
