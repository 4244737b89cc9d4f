package sim

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/obs"
	"solarcore/internal/sched"
)

// recorder captures every event in order.
type recorder struct {
	types     []string
	starts    []obs.RunStartEvent
	tracks    []obs.TrackEvent
	ticks     []obs.TickEvent
	ends      []obs.RunEndEvent
	faults    []obs.FaultEvent
	watchdogs []obs.WatchdogEvent
}

func (r *recorder) On(ev obs.Event) {
	r.types = append(r.types, ev.Type)
	switch {
	case ev.RunStart != nil:
		r.starts = append(r.starts, *ev.RunStart)
	case ev.Track != nil:
		tr := *ev.Track
		tr.Levels = slices.Clone(tr.Levels) // the controller reuses the slice
		r.tracks = append(r.tracks, tr)
	case ev.Tick != nil:
		r.ticks = append(r.ticks, *ev.Tick)
	case ev.RunEnd != nil:
		r.ends = append(r.ends, *ev.RunEnd)
	case ev.Fault != nil:
		r.faults = append(r.faults, *ev.Fault)
	case ev.Watchdog != nil:
		r.watchdogs = append(r.watchdogs, *ev.Watchdog)
	}
}

// TestObserverEventSequence pins the hook contract: one run_start first,
// one run_end last, one tick per kept series point, one track per
// tracking period, and run_end totals equal to the DayResult.
func TestObserverEventSequence(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Jul, "HM2")
	cfg.KeepSeries = true
	rec := &recorder{}
	cfg.Observer = rec

	res, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.types) < 3 {
		t.Fatalf("only %d events", len(rec.types))
	}
	if rec.types[0] != "run_start" || rec.types[len(rec.types)-1] != "run_end" {
		t.Errorf("sequence must be run_start..run_end, got %s..%s",
			rec.types[0], rec.types[len(rec.types)-1])
	}
	if len(rec.starts) != 1 || len(rec.ends) != 1 {
		t.Fatalf("starts=%d ends=%d, want exactly one each", len(rec.starts), len(rec.ends))
	}
	start := rec.starts[0]
	if start.Runner != "MPPT" || start.Policy != "MPPT&Opt" || start.Mix != "HM2" {
		t.Errorf("run_start identity wrong: %+v", start)
	}
	if start.Cores <= 0 || start.EndMin <= start.StartMin {
		t.Errorf("run_start geometry wrong: %+v", start)
	}
	if len(rec.ticks) != len(res.Series) {
		t.Errorf("ticks = %d, series points = %d", len(rec.ticks), len(res.Series))
	}
	if len(rec.tracks) != len(res.PeriodErrs) {
		t.Errorf("tracks = %d, tracking periods = %d", len(rec.tracks), len(res.PeriodErrs))
	}
	for _, tr := range rec.tracks {
		if tr.K <= 0 || len(tr.Levels) != start.Cores {
			t.Fatalf("track event malformed: %+v", tr)
		}
	}
	end := rec.ends[0]
	if end.Runner != "MPPT" {
		t.Errorf("run_end runner = %q", end.Runner)
	}
	if end.SolarWh != res.SolarWh || end.UtilityWh != res.UtilityWh ||
		end.SolarMin != res.SolarMin || end.Transitions != res.Transitions {
		t.Errorf("run_end totals diverge from DayResult:\n %+v\n %+v", end, res)
	}
}

// TestObserverBaselines checks every engine entry point brackets its run
// with start/end hooks.
func TestObserverBaselines(t *testing.T) {
	runs := map[string]func(cfg Config) error{
		"Fixed": func(cfg Config) error {
			_, err := RunFixed(cfg, 75)
			return err
		},
		"Battery": func(cfg Config) error {
			_, err := RunBattery(cfg, 0.92)
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			cfg := cfgFor(t, atmos.CO, atmos.Apr, "M1")
			rec := &recorder{}
			cfg.Observer = rec
			if err := run(cfg); err != nil {
				t.Fatal(err)
			}
			if len(rec.starts) != 1 || len(rec.ends) != 1 {
				t.Fatalf("starts=%d ends=%d", len(rec.starts), len(rec.ends))
			}
			if rec.starts[0].Runner != rec.ends[0].Runner {
				t.Errorf("runner mismatch: %q vs %q", rec.starts[0].Runner, rec.ends[0].Runner)
			}
		})
	}
}

// TestPlainObserverSeesFaultEvents checks that fault and watchdog events
// reach any Observer, not just the encoders: under a total sensor
// dropout a plain recorder and a JSONLSink attached to the same run see
// the same sequence of event types.
func TestPlainObserverSeesFaultEvents(t *testing.T) {
	cfg := cfgFor(t, atmos.AZ, atmos.Apr, "M2")
	s, err := fault.ParseSpec("sensor-drop:t0=600,t1=720,i=1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = s
	rec := &recorder{}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg.Observer = obs.Multi(rec, sink)
	if _, err := RunMPPT(cfg, sched.OptTPR{}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sunk := make([]string, len(events))
	for i, ev := range events {
		sunk[i] = ev.Type
	}
	if !slices.Equal(rec.types, sunk) {
		t.Errorf("recorder saw %d events, sink wrote %d; sequences differ", len(rec.types), len(sunk))
	}
	if len(rec.faults) == 0 || len(rec.watchdogs) == 0 {
		t.Errorf("recorder saw %d fault and %d watchdog events, want both > 0",
			len(rec.faults), len(rec.watchdogs))
	}
}

// TestObserverUnaffectedResult checks that attaching an observer does not
// perturb the simulation itself.
func TestObserverUnaffectedResult(t *testing.T) {
	cfg := cfgFor(t, atmos.NC, atmos.Oct, "L1")
	plain, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = obs.Nop{}
	observed, err := RunMPPT(cfg, sched.OptTPR{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SolarWh != observed.SolarWh || plain.GInstrTotal != observed.GInstrTotal {
		t.Errorf("observer changed the physics: %+v vs %+v", plain, observed)
	}
}

// TestRunCanceled checks the engine honors Config.Ctx on every entry
// point: wrapped context error, no partial result.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cfgFor(t, atmos.AZ, atmos.Jan, "H1")
	cfg.Ctx = ctx

	if res, err := RunMPPT(cfg, sched.OptTPR{}); !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("RunMPPT: res=%v err=%v", res, err)
	}
	if res, err := RunFixed(cfg, 75); !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("RunFixed: res=%v err=%v", res, err)
	}
	if res, err := RunBattery(cfg, 0.92); !errors.Is(err, context.Canceled) || res != nil {
		t.Errorf("RunBattery: res=%v err=%v", res, err)
	}
	if sr, err := RunMPPTSeries(cfg, sched.OptTPR{}, []*SolarDay{cfg.Day}); !errors.Is(err, context.Canceled) || sr != nil {
		t.Errorf("RunMPPTSeries: res=%v err=%v", sr, err)
	}
}
