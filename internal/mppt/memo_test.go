package mppt

import (
	"math"
	"math/rand"
	"testing"

	"solarcore/internal/power"
	"solarcore/internal/pv"
	"solarcore/internal/sched"
)

// curve samples the circuit's generator under env.
func curve(c *power.Circuit, env pv.Env) *pv.Curve {
	cv := c.Gen.At(env)
	return &cv
}

// sameOp reports whether two operating points are the same bits.
func sameOp(a, b power.Operating) bool {
	for _, p := range [][2]float64{{a.VPanel, b.VPanel}, {a.IPanel, b.IPanel},
		{a.VLoad, b.VLoad}, {a.ILoad, b.ILoad}, {a.PLoad, b.PLoad}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// TestSessionMemoMatchesDirectOperate holds the session's load-line memo
// to a direct solve: every sensor reading of a tracking session, every
// recorded trajectory point and the Result equal what Circuit.Operate on
// a freshly sampled curve gives at that reading's ratio and demand, with
// the benign noise stream and the SenseFault hook applied after it, bit
// for bit. The sessions revisit (k, demand) pairs, so the memo answers
// some of the readings.
func TestSessionMemoMatchesDirectOperate(t *testing.T) {
	bias := func(op power.Operating) power.Operating {
		op.ILoad *= 0.97
		op.PLoad = op.VLoad * op.ILoad
		return op
	}
	envs := []pv.Env{
		{Irradiance: 850, CellTemp: 30},
		{Irradiance: 420, CellTemp: 22},
		{Irradiance: 1000, CellTemp: 45},
		{Irradiance: 90, CellTemp: 12},
	}
	repeats := 0
	for _, tc := range []struct {
		name      string
		sensorErr float64
		sense     func(power.Operating) power.Operating
	}{
		{"clean", 0, nil},
		{"noise", 0.02, nil},
		{"sense-fault", 0, bias},
		{"noise+sense-fault", 0.02, bias},
	} {
		// The hook sees each reading after the noise: it records the ratio,
		// the demand and the reading, then applies the fault under test.
		type reading struct {
			k, demand float64
			op        power.Operating
		}
		var got []reading
		var ctrl *Controller
		hook := func(op power.Operating) power.Operating {
			got = append(got, reading{ctrl.Circuit.Conv.K, ctrl.Chip.Power(), op})
			if tc.sense != nil {
				return tc.sense(op)
			}
			return op
		}
		ctrl = rig(t, "HM2", sched.OptTPR{}, Config{RecordTrajectory: true, SensorError: tc.sensorErr, SenseFault: hook})
		noise := rand.New(rand.NewSource(0x5eed)) // New's default SensorSeed
		direct := power.NewCircuit(ctrl.Circuit.Gen)
		for s, env := range envs {
			got = got[:0]
			res := ctrl.Track(env, float64(600+10*s))
			if len(got) != len(res.Trajectory) {
				t.Fatalf("%s session %d: %d readings, %d trajectory points", tc.name, s, len(got), len(res.Trajectory))
			}
			seen := map[[2]float64]bool{}
			var out power.Operating
			for j, rd := range got {
				if seen[[2]float64{rd.k, rd.demand}] {
					repeats++
				}
				seen[[2]float64{rd.k, rd.demand}] = true
				direct.Conv.K = rd.k
				want := direct.OperateAtDemand(curve(direct, env), rd.demand)
				if e := tc.sensorErr; e > 0 {
					want.VLoad *= 1 + e*(2*noise.Float64()-1)
					want.ILoad *= 1 + e*(2*noise.Float64()-1)
					want.PLoad = want.VLoad * want.ILoad
				}
				if !sameOp(rd.op, want) {
					t.Fatalf("%s session %d reading %d: %+v, direct solve %+v", tc.name, s, j, rd.op, want)
				}
				out = want
				if tc.sense != nil {
					out = tc.sense(want)
				}
				p := res.Trajectory[j]
				if p.K != rd.k || math.Float64bits(p.VLoad) != math.Float64bits(out.VLoad) ||
					math.Float64bits(p.PLoad) != math.Float64bits(out.PLoad) {
					t.Fatalf("%s session %d point %d: %+v, want k %v, %v V, %v W", tc.name, s, j, p, rd.k, out.VLoad, out.PLoad)
				}
			}
			if !res.Overload && !sameOp(res.Op, out) {
				t.Errorf("%s session %d: Result.Op %+v, want the last reading %+v", tc.name, s, res.Op, out)
			}
		}
	}
	if repeats == 0 {
		t.Fatal("no session revisited a (k, demand) pair, so the memo was never exercised")
	}
}
