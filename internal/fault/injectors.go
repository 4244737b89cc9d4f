package fault

import (
	"math"

	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
	"solarcore/internal/power"
)

// Spec keywords of the injector kinds: the <kind> token of ParseSpec and
// the Kind of an Injector. I is the intensity, u ∈ [0,1] the phase of the
// minute within the window.
const (
	// KindCloud is a cloud-transient irradiance burst: the plane-of-array
	// irradiance is scaled by 1 − I·sin²(π·u), the bump depth modulated
	// by a deterministic ±20 % per-minute flicker that mimics ragged cloud
	// edges. I = 1 blacks the panel out at the burst peak. Stochastic.
	KindCloud = "cloud"
	// KindSensorStuck freezes the controller's I/V sensors: the first
	// reading taken inside the window is captured, and every later reading
	// is the blend (1−I)·live + I·frozen. At I = 1 the controller is blind
	// to everything after window entry — the classic stuck-at fault.
	KindSensorStuck = "sensor-stuck"
	// KindSensorBias is a drifting current-sensor bias: the sensed rail
	// current is scaled by 1 + I·u, so the controller increasingly
	// overestimates the delivered power — the slow calibration walk-off of
	// a real shunt amplifier.
	KindSensorBias = "sensor-bias"
	// KindSensorDrop zeroes the load-rail readings for a deterministic
	// fraction I of the window's minutes (a flaky sensor harness or ADC):
	// the controller sees a dead rail and must not mistake it for a
	// collapsed supply. At I = 1 every in-window reading drops. Stochastic.
	KindSensorDrop = "sensor-drop"
	// KindConvStuck jams the DC/DC transfer ratio: every tuning step and
	// ratio set is ignored, stranding the operating point wherever the
	// fault found it. Any positive I jams the ratio (the knob is binary).
	KindConvStuck = "conv-stuck"
	// KindConvDerate scales the DC/DC conversion efficiency by 1−I (aging
	// capacitors, a failed phase of a multi-phase stage). I = 1 is a dead
	// converter.
	KindConvDerate = "conv-derate"
	// KindCoreFail kills a fraction I of the chip's cores: the first
	// ⌈I·cores⌉ (at least one) are forced to mcore.Gated and refuse to
	// power up until the window closes.
	KindCoreFail = "core-fail"
	// KindCoreThrottle force-throttles every core: the highest reachable
	// DVFS level drops to ⌊(1−I)·top⌋ — the firmware thermal-emergency
	// clamp of a real part. I = 1 pins every core to its lowest operating
	// point (still running, unlike KindCoreFail).
	KindCoreThrottle = "core-throttle"
	// KindStringCut disconnects a fraction I of the array's parallel PV
	// strings, scaling the generator output current (and so its
	// deliverable power) by 1−I at an unchanged voltage.
	KindStringCut = "string-cut"
	// KindSolver makes the operating-point solver path fail for a
	// deterministic fraction I of the window's minutes, surfacing the
	// typed ErrSolverFault the degradation machinery must absorb
	// (non-convergence on a pathological I-V curve, a NaN from a corrupted
	// parameter block). Stochastic.
	KindSolver = "solver"
)

// cloudScale is a KindCloud burst's irradiance factor at the minute.
//
// unit: minute=min, return=ratio
func cloudScale(inj Injector, seed int64, minute float64) float64 {
	u := inj.W.frac(minute)
	bump := math.Sin(math.Pi * u)
	bump *= bump
	flicker := 0.8 + 0.4*hash01(seed, int64(minute)) // ±20 % around 1
	return mathx.Clamp(1-inj.I*bump*flicker, 0, 1)
}

// fires reports whether a KindSensorDrop or KindSolver fault strikes at
// the minute: a pure function of (seed, ⌊minute⌋), so every reading within
// one simulated minute agrees and replays identically.
//
// unit: minute=min
func fires(inj Injector, seed int64, minute float64) bool {
	return hash01(seed, int64(math.Floor(minute))) < inj.I
}

// sense is a sensor fault's transform of a load-rail reading under the
// sample of the last Runtime.At, keeping its per-run state in a. Other
// kinds pass op through.
func sense(a *armedInjector, op power.Operating) power.Operating {
	out := op
	switch a.Kind {
	case KindSensorStuck:
		if !a.hasFrozen {
			a.frozen, a.hasFrozen = op, true
		}
		f := a.frozen
		out.VLoad = (1-a.I)*op.VLoad + a.I*f.VLoad
		out.ILoad = (1-a.I)*op.ILoad + a.I*f.ILoad
		out.PLoad = out.VLoad * out.ILoad
	case KindSensorBias:
		out.ILoad *= a.bias
		out.PLoad = out.VLoad * out.ILoad
	case KindSensorDrop:
		if a.drop {
			out = power.Operating{VPanel: op.VPanel, IPanel: op.IPanel}
		}
	}
	return out
}

// failedCores is how many cores a KindCoreFail fault kills on a chip of
// the given size: at least one for any positive intensity, all of them
// at 1.
func failedCores(inj Injector, cores int) int {
	n := int(math.Ceil(inj.I * float64(cores)))
	if n < 1 && inj.I > 0 {
		n = 1
	}
	if n > cores {
		n = cores
	}
	return n
}

// coreCap is the highest DVFS level a core fault lets the core occupy:
// top means unconstrained, mcore.Gated failed. Other kinds return top.
func coreCap(inj Injector, core, cores, top int) int {
	switch inj.Kind {
	case KindCoreFail:
		if core < failedCores(inj, cores) {
			return mcore.Gated
		}
	case KindCoreThrottle:
		return min(max(int(math.Floor((1-inj.I)*float64(top))), 0), top)
	}
	return top
}
