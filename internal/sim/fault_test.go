package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/sched"
)

// zeroIntensitySchedule composes one of every injector kind, all at zero
// intensity — the schedule that must be provably indistinguishable from
// no schedule at all.
func zeroIntensitySchedule() *fault.Schedule {
	return fault.NewSchedule(99,
		fault.Injector{Kind: fault.KindCloud, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindSensorStuck, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindSensorDrop, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindConvStuck, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindConvDerate, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindCoreFail, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindCoreThrottle, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindStringCut, W: fault.Window{T0: 600, T1: 660}, I: 0},
		fault.Injector{Kind: fault.KindSolver, W: fault.Window{T0: 600, T1: 660}, I: 0},
	)
}

// runTraced runs one policy with a JSONL sink attached and returns the
// result plus the raw trace bytes.
func runTraced(t *testing.T, cfg Config, policy string) (*DayResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg.Observer = sink
	cfg.KeepSeries = true
	var res *DayResult
	var err error
	if policy == "Fixed" {
		res, err = RunFixed(cfg, 75)
	} else {
		alloc, ok := sched.ByName(policy)
		if !ok {
			t.Fatalf("unknown policy %q", policy)
		}
		res, err = RunMPPT(cfg, alloc)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func TestFaultNoOpInvariant(t *testing.T) {
	// Satellite 2: a zero-intensity schedule and an empty schedule must
	// produce byte-identical DayResults and JSONL traces to no schedule
	// at all, across all four policies.
	policies := []string{"MPPT&IC", "MPPT&RR", "MPPT&Opt", "Fixed"}
	for _, policy := range policies {
		cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
		baseRes, baseTrace := runTraced(t, cfg, policy)

		for _, variant := range []struct {
			name string
			s    *fault.Schedule
		}{
			{"empty", &fault.Schedule{}},
			{"zero-intensity", zeroIntensitySchedule()},
		} {
			cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
			cfg.Faults = variant.s
			res, trace := runTraced(t, cfg, policy)
			if !reflect.DeepEqual(baseRes, res) {
				t.Errorf("%s/%s: DayResult differs from baseline\nbase: %+v\ngot:  %+v",
					policy, variant.name, baseRes, res)
			}
			if !bytes.Equal(baseTrace, trace) {
				t.Errorf("%s/%s: JSONL trace differs from baseline (%d vs %d bytes)",
					policy, variant.name, len(baseTrace), len(trace))
			}
		}
	}
}

func TestSensorDropoutDegradesGracefully(t *testing.T) {
	// The acceptance scenario: a two-hour total sensor dropout mid-day.
	// The watchdog must trip into the de-rated Fixed-Power fallback and
	// the MPPT&Opt day must still beat the Table 3 de-rated Fixed-Power
	// baseline's utilization.
	schedule := func() *fault.Schedule {
		return fault.NewSchedule(0,
			fault.Injector{Kind: fault.KindSensorDrop, W: fault.Window{T0: 600, T1: 720}, I: 1})
	}

	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
	cfg.Faults = schedule()
	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Injected == 0 {
		t.Error("no fault injection recorded")
	}
	if res.Faults.WatchdogTrips < 1 {
		t.Errorf("watchdog never tripped under total sensor dropout: %+v", res.Faults)
	}
	if res.Faults.FallbackPeriods == 0 {
		t.Errorf("no periods ran in fallback: %+v", res.Faults)
	}
	if res.Faults.RecoveryMin <= 0 {
		t.Errorf("watchdog never recovered after the window closed: %+v", res.Faults)
	}

	// De-rated Fixed-Power baseline on the clean day (Table 3 low-grade
	// de-rating applied to the best fixed budget of a small grid).
	bestFixedU := 0.0
	for _, b := range []float64{25, 50, 75, 100} {
		fres, err := RunFixed(cfgFor(t, atmos.AZ, atmos.Apr, "M2"), b)
		if err != nil {
			t.Fatal(err)
		}
		if u := fres.Utilization(); u > bestFixedU {
			bestFixedU = u
		}
	}
	derated := power.BatteryLow.Derating() * bestFixedU
	if got := res.Utilization(); got < derated {
		t.Errorf("faulted MPPT&Opt utilization %.3f below de-rated Fixed-Power baseline %.3f", got, derated)
	}
}

func TestSolverFaultDoesNotAbort(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "H1")
	cfg.Faults = fault.NewSchedule(0,
		fault.Injector{Kind: fault.KindSolver, W: fault.Window{T0: 600, T1: 700}, I: 1})
	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatalf("solver faults aborted the run: %v", err)
	}
	if res.Faults.SolverFaults == 0 {
		t.Error("no solver faults recorded inside the window")
	}
	if res.Faults.WatchdogTrips < 1 {
		t.Errorf("persistent solver faults never tripped the watchdog: %+v", res.Faults)
	}
	if res.SolarWh <= 0 {
		t.Error("the day outside the fault window produced no solar energy")
	}
}

func TestCloudBurstReducesNotZeroes(t *testing.T) {
	clean, err := RunMPPT(cfgFor(t, atmos.AZ, atmos.Jul, "M2"), sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "M2")
	cfg.Faults = fault.NewSchedule(0,
		fault.Injector{Kind: fault.KindCloud, W: fault.Window{T0: 600, T1: 720}, I: 0.9})
	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SolarWh >= clean.SolarWh {
		t.Errorf("a deep cloud burst did not cost solar energy: %.1f vs clean %.1f",
			res.SolarWh, clean.SolarWh)
	}
	if res.SolarWh <= 0.25*clean.SolarWh {
		t.Errorf("a two-hour burst should not erase the day: %.1f vs clean %.1f",
			res.SolarWh, clean.SolarWh)
	}
}

func TestCoreFailRespectedAllDay(t *testing.T) {
	// Half the cores fail for a mid-day window; during the window the
	// chip must never run more than the surviving cores.
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "H1")
	cfg.Faults = fault.NewSchedule(0,
		fault.Injector{Kind: fault.KindCoreFail, W: fault.Window{T0: 600, T1: 700}, I: 0.5})
	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Injected == 0 {
		t.Error("core-fail window never opened")
	}
	// The faulted day commits less work than the clean one.
	clean, err := RunMPPT(cfgFor(t, atmos.AZ, atmos.Jul, "H1"), sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GInstrTotal >= clean.GInstrTotal {
		t.Errorf("half the cores failing for 100 min cost nothing: %.0f vs %.0f",
			res.GInstrTotal, clean.GInstrTotal)
	}
}

func TestFaultTraceValidatesAndCarriesEvents(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
	cfg.Faults = fault.NewSchedule(0,
		fault.Injector{Kind: fault.KindSensorDrop, W: fault.Window{T0: 600, T1: 720}, I: 1},
		fault.Injector{Kind: fault.KindCloud, W: fault.Window{T0: 640, T1: 680}, I: 0.7},
	)
	_, trace := runTraced(t, cfg, "MPPT&Opt")
	events, err := obs.ReadEvents(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("faulted trace does not validate: %v", err)
	}
	var begins, ends, watchdogs int
	for _, ev := range events {
		switch ev.Type {
		case obs.TypeFault:
			if ev.Fault.Phase == obs.FaultBegin {
				begins++
			} else {
				ends++
			}
		case obs.TypeWatchdog:
			watchdogs++
		}
	}
	if begins != 2 || ends != 2 {
		t.Errorf("fault edge events: %d begins, %d ends, want 2 and 2", begins, ends)
	}
	if watchdogs == 0 {
		t.Error("no watchdog transitions in the trace")
	}
	// The run-end envelope carries the fault counters.
	last := events[len(events)-1]
	if last.Type != obs.TypeRunEnd || last.RunEnd.FaultsInjected != 2 {
		t.Errorf("run_end fault counters wrong: %+v", last.RunEnd)
	}
}

// TestFaultWindowAfterLastSample pins the end of the day: a window that
// opens after the last sample was never seen open, so no runner counts
// it or emits its edges, while a window the last sample saw open counts
// and ends at the day's end minute. AZ/Apr at 8-minute sub-samples ends
// at 1050; the tracking and fixed runners sample periods from 1040, so
// their last sample is 1048, and the battery samples one grid from 450,
// so its last is 1042. The battery's bank empties hours before that, so
// its draw loop never reaches the window: its harvest loop, which
// samples the whole day, must count it.
func TestFaultWindowAfterLastSample(t *testing.T) {
	for _, rn := range []struct {
		runner string
		last   float64 // the last sampled minute, unit: min
	}{{"MPPT&Opt", 1048}, {"Fixed", 1048}, {"Battery", 1042}} {
		for _, tc := range []struct {
			spec     string
			injected int
		}{
			{"cloud:t0=1049.99,t1=1110,i=1", 0},
			{fmt.Sprintf("cloud:t0=%g,t1=1110,i=1", rn.last+0.5), 0},
			{fmt.Sprintf("cloud:t0=%g,t1=1110,i=1", rn.last), 1},
		} {
			runner := rn.runner
			cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
			cfg.StepMin = 8
			s, err := fault.ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = s
			rec := &recorder{}
			cfg.Observer = rec
			var res *DayResult
			switch runner {
			case "Fixed":
				res, err = RunFixed(cfg, 75)
			case "Battery":
				res, err = RunBattery(cfg, power.BatteryUpperEff)
			default:
				res, err = RunMPPT(cfg, sched.OptTPR{})
			}
			if err != nil {
				t.Fatal(err)
			}
			end := cfg.Day.EndMinute()
			last := rec.ticks[len(rec.ticks)-1].Minute
			if runner == "Battery" {
				if last >= rn.last {
					t.Fatalf("battery ticks last at %v; the case needs a bank empty before %v", last, rn.last)
				}
			} else if last != rn.last {
				t.Fatalf("%s: last tick %v; the case needs %v", runner, last, rn.last)
			}
			if end != 1050 {
				t.Fatalf("day ends at %v; the case needs 1050", end)
			}
			if res.Faults.Injected != tc.injected || len(rec.faults) != 2*tc.injected {
				t.Errorf("%s %s: %d injected, %d fault events; want %d and %d",
					runner, tc.spec, res.Faults.Injected, len(rec.faults), tc.injected, 2*tc.injected)
				continue
			}
			if tc.injected == 1 {
				begin, stop := rec.faults[0], rec.faults[1]
				if begin.Phase != obs.FaultBegin || begin.Minute != rn.last || stop.Phase != obs.FaultEnd || stop.Minute != end {
					t.Errorf("%s %s: edges %+v, %+v; want begin at %v, end at %v", runner, tc.spec, begin, stop, rn.last, end)
				}
			}
		}
	}
}
