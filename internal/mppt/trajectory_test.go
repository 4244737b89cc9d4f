package mppt

import (
	"math"
	"testing"

	"solarcore/internal/pv"
	"solarcore/internal/sched"
)

func TestTrajectoryRecorded(t *testing.T) {
	ctrl := rig(t, "HM2", sched.OptTPR{}, Config{RecordTrajectory: true, MarginSteps: 0})
	env := pv.Env{Irradiance: 850, CellTemp: 30}
	res := ctrl.Track(env, 0)
	if len(res.Trajectory) < 5 {
		t.Fatalf("trajectory has %d points", len(res.Trajectory))
	}
	// The transient must climb: its final power within a few percent of
	// its maximum, and the maximum well above the start.
	maxP, first, last := 0.0, res.Trajectory[0], res.Trajectory[len(res.Trajectory)-1]
	for _, p := range res.Trajectory {
		if p.PLoad > maxP {
			maxP = p.PLoad
		}
	}
	if last.PLoad < 0.85*maxP {
		t.Errorf("transient ends at %.1f W, max was %.1f W", last.PLoad, maxP)
	}
	if maxP < 2*first.PLoad {
		t.Errorf("transient barely climbed: %.1f → %.1f W", first.PLoad, maxP)
	}
	// k moves only in Δk quanta.
	dk := ctrl.Circuit.Conv.DeltaK
	for i := 1; i < len(res.Trajectory); i++ {
		move := math.Abs(res.Trajectory[i].K - res.Trajectory[i-1].K)
		if move > 2*dk+1e-9 {
			t.Fatalf("k jumped %.4f (> 2Δk) at step %d", move, i)
		}
	}
}

func TestTrajectoryOffByDefault(t *testing.T) {
	ctrl := rig(t, "L1", sched.OptTPR{}, Config{})
	res := ctrl.Track(pv.STC, 0)
	if res.Trajectory != nil {
		t.Error("trajectory recorded without opt-in")
	}
}

func TestTrajectoryStepsMatchBudget(t *testing.T) {
	// The paper bounds tracking at <5 ms per session. At ~10 µs per
	// perturb/observe action (sensor settling), the recorded trajectory
	// must stay within a few hundred actions.
	ctrl := rig(t, "H1", sched.OptTPR{}, Config{RecordTrajectory: true})
	res := ctrl.Track(pv.Env{Irradiance: 700, CellTemp: 30}, 0)
	if len(res.Trajectory) > ctrl.Cfg.MaxSteps+16 {
		t.Errorf("trajectory %d points exceeds the action budget %d",
			len(res.Trajectory), ctrl.Cfg.MaxSteps)
	}
}

func TestScanPointsSeedsNearMPP(t *testing.T) {
	// With ScanPoints set, a session that starts with a badly mis-seated
	// converter still lands near the MPP: the sweep parks k close to the
	// optimum before the climb.
	ctrl := rig(t, "M1", sched.OptTPR{}, Config{ScanPoints: 24, MarginSteps: 0})
	ctrl.Circuit.Conv.SetRatio(ctrl.Circuit.Conv.KMax)
	env := pv.Env{Irradiance: 800, CellTemp: 30}
	res := ctrl.Track(env, 0)
	if !res.Solar() {
		t.Fatal("scan-assisted session failed to track")
	}
	avail := ctrl.Circuit.AvailableMax(curve(ctrl.Circuit, env))
	if res.Op.PLoad < 0.85*avail {
		t.Errorf("scan-assisted power %.1f W of %.1f W", res.Op.PLoad, avail)
	}
	// The converter must have left the rail it was parked at.
	if ctrl.Circuit.Conv.K >= ctrl.Circuit.Conv.KMax {
		t.Error("scan never moved the converter ratio")
	}
}
