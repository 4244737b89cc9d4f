// Package mppt implements the SolarCore controller of Section 4: the
// multi-core-aware maximum power point tracking loop (Figure 9) that
// coordinates DC/DC transfer-ratio perturbation with per-core load
// adaptation (Figure 12), keeping the load rail at its nominal voltage
// while walking the panel's operating point to the MPP.
//
// The controller sees the system only through what the real hardware sees:
// the I/V sensors at the load rail (a power.Operating sample) and the knobs
// it owns — the converter ratio k and one-step Raise/Lower requests against
// the chip via a sched.Allocator. It never reads the panel model directly.
package mppt

import (
	"fmt"
	"math/rand"

	"solarcore/internal/mcore"
	"solarcore/internal/obs"
	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
)

// The tracking thresholds, fixed by the paper's controller.
const (
	// vTolerance is the relative band around the nominal rail voltage
	// that Step 1 and Step 3 restore into.
	vTolerance = 0.02
	// minGain is the relative output-power improvement below which the
	// hill climb declares the inflection point.
	minGain = 0.002
)

// Config tunes the controller.
type Config struct {
	// MarginSteps is how many DVFS steps of load the controller sheds after
	// reaching the inflection point, leaving the protective power margin of
	// Section 4.3 (zero sheds none, negative counts as zero; sim.Config
	// defaults it to 2).
	MarginSteps int
	// MaxSteps bounds the total tuning actions per tracking invocation
	// (default 512) — the paper observes <5 ms of tracking per 10-minute
	// period; this is the corresponding effort cap.
	MaxSteps int
	// SensorError injects measurement noise: every I/V sensor reading is
	// scaled by an independent uniform factor in [1−e, 1+e]. Zero means
	// ideal sensors. The noise stream is deterministic per controller.
	SensorError float64
	// SensorSeed seeds the noise stream (0 picks a fixed default).
	SensorSeed int64
	// SenseFault, when non-nil, transforms every sensor reading after the
	// benign noise — the fault-injection hook (fault.Runtime.Sense, which
	// reads the schedule's sample at the session's minute) for stuck-at,
	// bias-drift and dropout sensor faults. The controller only ever sees
	// the transformed reading; the physical operating point is untouched.
	SenseFault func(op power.Operating) power.Operating
	// RecordTrajectory retains the per-action (k, VLoad, PLoad) path of
	// every tracking session in Result.Trajectory — the transient the
	// flowchart of Figure 9 walks, made observable for analysis and tests.
	RecordTrajectory bool
	// ScanPoints, when positive, prefixes every tracking session with a
	// coarse sweep of the full converter ratio range that parks k at the
	// best-producing ratio before the hill climb begins. Under partial
	// shading the P-V curve has several maxima and the Figure 9 climb locks
	// onto whichever is nearest; the scan finds the global one.
	ScanPoints int
	// Observer, when non-nil, receives one obs.TrackEvent per tracking
	// session (final ratio k, steps consumed, settled load, per-core DVFS
	// levels) and an obs.AllocEvent for each protective-margin shed. The
	// engine threads sim.Config.Observer through here.
	Observer obs.Observer
}

func (c *Config) fillDefaults() {
	if c.MarginSteps < 0 {
		c.MarginSteps = 0
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 512
	}
}

// Controller drives one circuit + chip pair.
type Controller struct {
	Circuit *power.Circuit
	Chip    *mcore.Chip
	Alloc   sched.Allocator
	Cfg     Config

	noise *rand.Rand
	traj  *[]TrajectoryPoint

	// lastGoodK remembers the ratio of the last productive session so a
	// dark period that walked the converter to its rail does not strand
	// the next session on the far side of the P-V curve.
	lastGoodK float64
}

// New builds a controller with defaulted configuration.
func New(circuit *power.Circuit, chip *mcore.Chip, alloc sched.Allocator, cfg Config) (*Controller, error) {
	if circuit == nil || chip == nil || alloc == nil {
		return nil, fmt.Errorf("mppt: circuit, chip and allocator are all required")
	}
	cfg.fillDefaults()
	if err := circuit.Conv.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{Circuit: circuit, Chip: chip, Alloc: alloc, Cfg: cfg}
	if cfg.SensorError > 0 {
		seed := cfg.SensorSeed
		if seed == 0 {
			seed = 0x5eed
		}
		c.noise = rand.New(rand.NewSource(seed))
	}
	return c, nil
}

// Result reports one tracking invocation.
type Result struct {
	// Overload means the panel cannot support even the minimum load; the
	// ATS should select the utility for this period.
	Overload bool
	// Steps is the number of tuning actions (k perturbations and DVFS
	// moves) consumed.
	Steps int
	// Op is the settled operating point (meaningless when Overload).
	Op power.Operating
	// RaisedTo reports the final chip demand at the nominal rail (W).
	RaisedTo float64
	// Trajectory is the sensor-visible transient of this session, recorded
	// when Config.RecordTrajectory is set.
	Trajectory []TrajectoryPoint
}

// TrajectoryPoint is one sensor sample along a tracking transient.
type TrajectoryPoint struct {
	K     float64 // converter transfer ratio (dimensionless)
	VLoad float64 // load rail voltage, V
	PLoad float64 // load power, W
}

// Solar reports whether the tracking session established productive
// solar-powered operation: no overload and at least one core running. When
// false, the ATS should select the utility for this period.
func (r *Result) Solar() bool { return !r.Overload && r.RaisedTo > 0 }

// operate samples the sensors for the chip's current demand on the
// session's curve, applying the configured measurement noise — the
// controller only ever sees what its I/V sensors report. A (k, demand)
// pair the session solved before is answered by the curve's memo; the
// noise, the SenseFault hook and the trajectory still see every reading.
func (c *Controller) operate(cv *pv.Curve) power.Operating {
	op := c.Circuit.OperateAtDemand(cv, c.Chip.Power())
	if c.noise != nil {
		e := c.Cfg.SensorError
		op.VLoad *= 1 + e*(2*c.noise.Float64()-1)
		op.ILoad *= 1 + e*(2*c.noise.Float64()-1)
		op.PLoad = op.VLoad * op.ILoad
	}
	if c.Cfg.SenseFault != nil {
		op = c.Cfg.SenseFault(op)
	}
	if c.traj != nil {
		*c.traj = append(*c.traj, TrajectoryPoint{K: c.Circuit.Conv.K, VLoad: op.VLoad, PLoad: op.PLoad})
	}
	return op
}

// Track runs one periodically-triggered tracking session (Figure 9):
// Step 1 restores the rail to nominal by load shedding/adding, then the
// loop alternates Step 2 (perturb k, observe output current to pick the
// tuning direction) and Step 3 (load-match back to nominal) until output
// power stops improving, and finally sheds MarginSteps of load as the
// protective power margin. The session runs on the circuit generator's
// curve under env (TrackCurve). When Config.Observer is set, the settled
// session is reported as one obs.TrackEvent. The session samples the
// chip at minute (mcore.Chip.At); minute also stamps the events. A
// Config.SenseFault hook must already be sampled at minute.
//
// unit: minute=min
func (c *Controller) Track(env pv.Env, minute float64) Result {
	return c.TrackCurve(c.Circuit.Gen.At(env), minute)
}

// TrackCurve is Track on a panel curve the caller sampled, such as the
// engine's under a fault schedule's string-disconnect scale. The session
// owns its copy of cv: the panel is fixed for the session, so the curve's
// memo answers every (k, demand) pair the session revisits.
//
// unit: minute=min
func (c *Controller) TrackCurve(cv pv.Curve, minute float64) Result {
	c.Chip.At(minute)
	res := c.track(&cv, minute)
	if o := c.Cfg.Observer; o != nil {
		obs.Track(o, obs.TrackEvent{
			Minute:   minute,
			K:        c.Circuit.Conv.K,
			Steps:    res.Steps,
			Overload: res.Overload,
			LoadW:    res.RaisedTo,
			SensedW:  res.Op.PLoad,
			Levels:   c.Chip.Levels(),
		})
	}
	return res
}

// track is the Figure 9 session body behind Track; minute stamps the
// margin-shed events.
//
// unit: minute=min
func (c *Controller) track(cv *pv.Curve, minute float64) Result {
	steps := 0
	budgetLeft := func() bool { return steps < c.Cfg.MaxSteps }

	var traj []TrajectoryPoint
	if c.Cfg.RecordTrajectory {
		c.traj = &traj
		defer func() { c.traj = nil }()
	}

	// Soft restart: if the converter sits railed (a dark period walked it
	// there), resume from the last productive ratio, as deployed MPPT
	// controllers do with their stored operating-point estimate.
	conv := c.Circuit.Conv
	if c.lastGoodK > 0 && (conv.K <= conv.KMin+conv.DeltaK || conv.K >= conv.KMax-conv.DeltaK) {
		conv.SetRatio(c.lastGoodK)
	}

	op, overload := c.restoreRail(cv, &steps)
	if overload {
		return Result{Overload: true, Steps: steps, Trajectory: traj}
	}

	// Optional global ratio scan: only meaningful once Step 1 has
	// established a load to measure against; afterwards the rail must be
	// re-matched at the chosen ratio.
	if c.Cfg.ScanPoints > 1 && c.Chip.Power() > 0 {
		c.scanRatio(cv, &steps)
		op, overload = c.restoreRail(cv, &steps)
		if overload {
			return Result{Overload: true, Steps: steps, Trajectory: traj}
		}
	}

	atPeak := 0
	for budgetLeft() {
		prev := op

		// Step 2: perturb the transfer ratio and watch the output current.
		moved := c.Circuit.Conv.Step(+1)
		steps++
		probe := c.operate(cv)
		wrongDir := !moved || probe.ILoad <= prev.ILoad
		if wrongDir {
			// Wrong direction (or railed): net −Δk as in Figure 9.
			c.Circuit.Conv.Step(-2)
			steps++
		}

		// Step 3: load-match the rail back to nominal.
		op, overload = c.restoreRail(cv, &steps)
		if overload {
			return Result{Overload: true, Steps: steps, Trajectory: traj}
		}

		// Inflection check. A single flat reading is not the peak: load
		// matching moves discrete DVFS steps, so power wobbles even while
		// the ratio is still far below the MPP (the direction probe says
		// "keep climbing"). Stop only when the probe has reversed AND the
		// climb has stopped paying — the paper's inflection point.
		if op.PLoad > prev.PLoad*(1+minGain) {
			atPeak = 0
			continue
		}
		if wrongDir {
			atPeak++
			if atPeak >= 2 {
				break
			}
		}
	}

	// Protective power margin (Section 4.3): one step of headroom so that
	// workload phase swings do not overrun the budget mid-period.
	for i := 0; i < c.Cfg.MarginSteps; i++ {
		if !c.Alloc.Lower(c.Chip) {
			break
		}
		steps++
		if o := c.Cfg.Observer; o != nil {
			obs.Alloc(o, obs.AllocEvent{Minute: minute, Dir: -1, Reason: obs.AllocMargin,
				DemandW: c.Chip.Power()})
		}
	}
	op = c.operate(cv)

	res := Result{Op: op, Steps: steps, RaisedTo: c.Chip.Power(), Trajectory: traj}
	if res.Solar() {
		c.lastGoodK = conv.K
	}
	return res
}

// scanRatio sweeps the converter range at the present load and parks the
// ratio at the best-producing point — the global-scan prefix enabled by
// Config.ScanPoints.
func (c *Controller) scanRatio(cv *pv.Curve, steps *int) {
	conv := c.Circuit.Conv
	bestK, bestP := conv.K, -1.0
	for i := 0; i < c.Cfg.ScanPoints; i++ {
		k := conv.KMin + (conv.KMax-conv.KMin)*float64(i)/float64(c.Cfg.ScanPoints-1)
		conv.SetRatio(k)
		*steps++
		if p := c.operate(cv).PLoad; p > bestP {
			bestK, bestP = k, p
		}
	}
	conv.SetRatio(bestK)
}

// restoreRail is Step 1 (and Step 3): move the load until the rail voltage
// is inside the nominal band. Because DVFS steps are discrete, the band may
// not be reachable exactly; a raise/lower flip-flop means the two adjacent
// configurations straddle it, and the controller settles on the safe
// (undersupplied) side — the power-margin behaviour of Section 4.3.
//
// Two states need care beyond the flowchart of Figure 9:
//
//   - an UNLOADED rail floats at Voc/k and says nothing about available
//     power, so a zero-demand chip probes a minimal load instead of
//     declaring victory inside the band;
//   - at minimal load a sagging rail is a CONVERTER problem, not a load
//     problem (VLoad = Vpv/k cannot reach nominal when k is too large), so
//     the controller walks k down before shedding the last core. Only a
//     railed converter with everything gated is a true overload.
func (c *Controller) restoreRail(cv *pv.Curve, steps *int) (power.Operating, bool) {
	vNom := c.Circuit.VNominal
	hi := vNom * (1 + vTolerance)
	lo := vNom * (1 - vTolerance)

	lastDir, flips, zeroProbes := 0, 0, 0
	for *steps < c.Cfg.MaxSteps {
		op := c.operate(cv)
		demand := c.Chip.Power()

		var dir int
		switch {
		case op.VLoad > hi:
			dir = +1
		case op.VLoad < lo:
			dir = -1
		default:
			if demand <= 0 {
				// In-band but unloaded: probe a minimal load (bounded — a
				// panel that cannot carry it keeps knocking us back here).
				if zeroProbes < 2 && c.Alloc.Raise(c.Chip) {
					zeroProbes++
					*steps++
					continue
				}
				return op, false
			}
			return op, false
		}
		if lastDir != 0 && dir != lastDir {
			flips++
			if flips >= 3 && demand > c.minimalDemand() {
				// Straddling the band between two real configurations:
				// end on the undersupplied side.
				if dir < 0 {
					c.Alloc.Lower(c.Chip)
					*steps++
					op = c.operate(cv)
				}
				return op, false
			}
		}
		lastDir = dir

		if dir > 0 {
			if !c.Alloc.Raise(c.Chip) {
				// All cores at top: the panel oversupplies the chip.
				return op, false
			}
			*steps++
			continue
		}

		// Rail low. At minimal load the fix is a smaller ratio, not less
		// load; with load to spare, shed it.
		if demand <= c.minimalDemand() {
			if c.Circuit.Conv.Step(-1) {
				*steps++
				continue
			}
			if demand <= 0 {
				return op, true // dark: converter railed, nothing to shed
			}
			// Converter railed with the minimal load still sagging the
			// rail: the panel cannot carry even one core.
			c.Alloc.Lower(c.Chip)
			*steps++
			return c.operate(cv), true
		}
		if !c.Alloc.Lower(c.Chip) {
			// Nothing left to shed and the rail still sags.
			if c.Circuit.Conv.Step(-1) {
				*steps++
				continue
			}
			return op, true
		}
		*steps++
	}
	return c.operate(cv), false
}

// minimalDemand returns the power of the lightest non-empty configuration:
// one core at the lowest operating point. Demand at or below it means load
// shedding cannot help the rail any further.
//
// unit: return=W
func (c *Controller) minimalDemand() float64 {
	return c.Chip.MinPower() * 1.01
}
