package mppt

import (
	"testing"

	"solarcore/internal/fault"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
)

func TestTrackingSurvivesSensorNoise(t *testing.T) {
	// Failure injection: ±2 % multiplicative I/V sensor error. The
	// perturb-and-observe structure must still converge near the MPP —
	// individual direction probes may be misled, but the rail-restoration
	// feedback bounds the damage.
	for _, noise := range []float64{0.005, 0.01, 0.02} {
		ctrl := rig(t, "HM2", sched.OptTPR{}, Config{SensorError: noise, MarginSteps: 0})
		env := pv.Env{Irradiance: 850, CellTemp: 30}
		worst := 1.0
		for i := 0; i < 8; i++ {
			res := ctrl.Track(env, float64(i*10))
			if !res.Solar() {
				t.Fatalf("noise %v: tracking lost solar operation", noise)
			}
			frac := res.RaisedTo / ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
			if frac < worst {
				worst = frac
			}
		}
		if worst < 0.70 {
			t.Errorf("noise %v: worst tracked fraction %.2f, want ≥ 0.70", noise, worst)
		}
	}
}

func TestSensorNoiseDeterministic(t *testing.T) {
	env := pv.Env{Irradiance: 700, CellTemp: 25}
	run := func() float64 {
		ctrl := rig(t, "M1", sched.OptTPR{}, Config{SensorError: 0.02, SensorSeed: 7})
		return ctrl.Track(env, 0).RaisedTo
	}
	if run() != run() {
		t.Error("same seed should reproduce identical tracking")
	}
}

func TestSensorNoiseDegradesAccuracy(t *testing.T) {
	// More noise should not make tracking better on average.
	env := pv.Env{Irradiance: 900, CellTemp: 35}
	mean := func(noise float64) float64 {
		ctrl := rig(t, "L1", sched.OptTPR{}, Config{SensorError: noise, MarginSteps: 0})
		sum := 0.0
		const n = 10
		for i := 0; i < n; i++ {
			sum += ctrl.Track(env, float64(i*10)).RaisedTo
		}
		return sum / n
	}
	clean, noisy := mean(0), mean(0.03)
	if noisy > clean*1.02 {
		t.Errorf("noisy tracking (%.1f W) should not beat clean (%.1f W)", noisy, clean)
	}
}

func TestZeroNoiseHasNoRNG(t *testing.T) {
	ctrl := rig(t, "H1", sched.OptTPR{}, Config{})
	if ctrl.noise != nil {
		t.Error("noise stream allocated for ideal sensors")
	}
}

func TestStuckSensorRecoversAfterWindow(t *testing.T) {
	// Stuck-at fault via the SenseFault hook: the controller is blind to
	// every change after window entry at full intensity. Sessions inside
	// the window may mis-settle, but none may panic, and once the window
	// closes tracking must return to within tolerance of a clean
	// controller driven over the same cadence.
	env := pv.Env{Irradiance: 850, CellTemp: 30}
	finalFrac := func(ctrl *Controller, rt *fault.Runtime) float64 {
		for m := 0.0; m < 200; m += 10 {
			rt.At(m)
			ctrl.Track(env, m) // faulted or not, must not panic
		}
		rt.At(200)
		return ctrl.Track(env, 200).RaisedTo / ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
	}

	clean := finalFrac(rig(t, "HM2", sched.OptTPR{}, Config{}), nil)
	rt := fault.NewSchedule(1,
		fault.Injector{Kind: fault.KindSensorStuck, W: fault.Window{T0: 40, T1: 120}, I: 1}).Runtime()
	faulted := finalFrac(rig(t, "HM2", sched.OptTPR{}, Config{SenseFault: rt.Sense}), rt)
	if faulted < clean-0.10 {
		t.Errorf("post-recovery tracked fraction %.2f, clean %.2f: outside tolerance", faulted, clean)
	}
}

func TestSensorDropoutTripsWatchdogWithinN(t *testing.T) {
	// Dropout fault via the SenseFault hook, supervised the way the
	// engine does it: under a total dropout the watchdog must trip into
	// fallback within tripPeriods+1 tracked periods of the window
	// opening, and graduate back to tracking after the window closes.
	const t0, t1, period = 50.0, 150.0, 10.0
	rt := fault.NewSchedule(3,
		fault.Injector{Kind: fault.KindSensorDrop, W: fault.Window{T0: t0, T1: t1}, I: 1}).Runtime()
	ctrl := rig(t, "HM2", sched.OptTPR{}, Config{SenseFault: rt.Sense})
	wd := &fault.Watchdog{}
	env := pv.Env{Irradiance: 850, CellTemp: 30}

	tripped := -1.0
	for m := 0.0; m < 300; m += period {
		if wd.Mode() == fault.ModeFallback {
			wd.ObserveFallback(m)
			continue
		}
		rt.At(m)
		res := ctrl.Track(env, m)
		wd.Observe(fault.PeriodStats{
			Minute: m, Overload: res.Overload,
			Steps: res.Steps, MaxSteps: ctrl.Cfg.MaxSteps,
			SensedW:  res.Op.PLoad,
			LoadW:    ctrl.Circuit.OperateAtDemand(curve(ctrl.Circuit, env), res.RaisedTo).PLoad,
			BudgetW:  ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env)),
			MinLoadW: ctrl.Chip.MinPower(),
		})
		if tripped < 0 && wd.Mode() == fault.ModeFallback {
			tripped = m
		}
	}
	if tripped < 0 {
		t.Fatal("watchdog never tripped under a total sensor dropout")
	}
	const tripPeriods = 2 // the watchdog's trip threshold
	if maxTrip := t0 + period*(tripPeriods+1); tripped > maxTrip {
		t.Errorf("tripped at minute %v, want within %v", tripped, maxTrip)
	}
	if wd.Mode() != fault.ModeTracking {
		t.Errorf("watchdog stuck in %v after the window closed", wd.Mode())
	}
	if wd.RecoveryMin() <= 0 {
		t.Error("no trip-to-recovery time recorded")
	}

	// Post-recovery utilization within tolerance of a clean controller.
	clean := rig(t, "HM2", sched.OptTPR{}, Config{})
	cleanFrac := clean.Track(env, 300).RaisedTo / clean.Circuit.AvailableMax(curve(clean.Circuit, env))
	rt.At(300)
	got := ctrl.Track(env, 300).RaisedTo / ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
	if got < cleanFrac-0.10 {
		t.Errorf("post-recovery tracked fraction %.2f, clean %.2f: outside tolerance", got, cleanFrac)
	}
}
