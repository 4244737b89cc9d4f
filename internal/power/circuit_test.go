package power

import (
	"math"
	"testing"

	"solarcore/internal/pv"
)

func testCircuit() *Circuit {
	return NewCircuit(pv.NewModule(pv.BP3180N()))
}

func TestOperatePowerConservation(t *testing.T) {
	c := testCircuit()
	op := c.Operate(curve(c, pv.STC), 2.0)
	panelP := op.VPanel * op.IPanel
	if math.Abs(op.PLoad-panelP*c.Conv.Efficiency) > 1e-6 {
		t.Errorf("load power %v, want %v·η", op.PLoad, panelP)
	}
	if op.VLoad <= 0 || op.ILoad <= 0 {
		t.Errorf("degenerate operating point: %+v", op)
	}
}

func TestOperateOpenCircuit(t *testing.T) {
	c := testCircuit()
	op := c.Operate(curve(c, pv.STC), math.Inf(1))
	if op.PLoad != 0 || op.ILoad != 0 {
		t.Errorf("open circuit should deliver nothing: %+v", op)
	}
	voc := curve(c, pv.STC).OpenCircuitVoltage()
	if math.Abs(op.VPanel-voc) > 1e-9 {
		t.Errorf("open-circuit panel voltage %v, want Voc %v", op.VPanel, voc)
	}
	if got := c.LoadResistance(0); !math.IsInf(got, 1) {
		t.Errorf("zero demand resistance = %v, want +Inf", got)
	}
	// A fully derated converter (η = 0) must not turn the open load's
	// panel-side resistance k²·Inf·η into NaN.
	c.Conv.Efficiency = 0
	if op := c.Operate(curve(c, pv.STC), math.Inf(1)); op.VPanel != voc || op.PLoad != 0 {
		t.Errorf("open circuit at η = 0: %+v, want VPanel %v and no load power", op, voc)
	}
}

func TestOperateDarkness(t *testing.T) {
	c := testCircuit()
	op := c.Operate(curve(c, pv.Env{Irradiance: 0, CellTemp: 25}), 2.0)
	if op.PLoad != 0 {
		t.Errorf("dark panel delivered %v W", op.PLoad)
	}
}

func TestTable1RaisingLoadLowersVoltage(t *testing.T) {
	// Table 1: increasing the load (smaller R) decreases load voltage,
	// regardless of operating region.
	c := testCircuit()
	prevV := math.Inf(1)
	for _, r := range []float64{20, 10, 5, 2, 1} {
		op := c.Operate(curve(c, pv.STC), r)
		if op.VLoad >= prevV {
			t.Errorf("R=%v: VLoad %v did not fall (prev %v)", r, op.VLoad, prevV)
		}
		prevV = op.VLoad
	}
}

func TestTable1PowerPeaksAtMPP(t *testing.T) {
	// Sweeping the load from light to heavy moves the operating point from
	// the right of the MPP to its left; delivered power rises then falls.
	c := testCircuit()
	mppP := c.AvailableMax(curve(c, pv.STC))
	best := 0.0
	rising := true
	prevP := 0.0
	changes := 0
	for r := 40.0; r >= 0.25; r *= 0.93 {
		op := c.Operate(curve(c, pv.STC), r)
		if op.PLoad > best {
			best = op.PLoad
		}
		if op.PLoad < prevP && rising {
			rising = false
			changes++
		} else if op.PLoad > prevP+1e-9 && !rising {
			rising = true
			changes++
		}
		prevP = op.PLoad
	}
	if changes != 1 {
		t.Errorf("power along load sweep not unimodal: %d direction changes", changes)
	}
	if best < 0.98*mppP {
		t.Errorf("load sweep peak %v misses AvailableMax %v", best, mppP)
	}
}

func TestRaisingKMovesPanelVoltageUp(t *testing.T) {
	// The Step 2 probe: at fixed load, a larger k shifts the panel-side
	// operating voltage upward.
	c := testCircuit()
	c.Conv.SetRatio(2.5)
	v1 := c.Operate(curve(c, pv.STC), 2.0).VPanel
	c.Conv.SetRatio(3.5)
	v2 := c.Operate(curve(c, pv.STC), 2.0).VPanel
	if v2 <= v1 {
		t.Errorf("VPanel did not rise with k: %v → %v", v1, v2)
	}
}

func TestDirectionProbeSignMatchesMPPSide(t *testing.T) {
	// Left of the MPP a k increase raises output current; right of the MPP
	// it lowers it — exactly the decision rule of tracking Step 2.
	c := testCircuit()
	mpp := curve(c, pv.STC).MPP()

	probe := func(r float64) (side string, delta float64) {
		c.Conv.SetRatio(3.0)
		op0 := c.Operate(curve(c, pv.STC), r)
		if op0.VPanel < mpp.V {
			side = "left"
		} else {
			side = "right"
		}
		c.Conv.Step(+5)
		op1 := c.Operate(curve(c, pv.STC), r)
		c.Conv.Step(-5)
		return side, op1.ILoad - op0.ILoad
	}

	// A heavy load sits left of the MPP.
	if side, d := probe(0.5); side != "left" || d <= 0 {
		t.Errorf("heavy load: side=%s ΔI=%v, want left/positive", side, d)
	}
	// A light load sits right of the MPP.
	if side, d := probe(20); side != "right" || d >= 0 {
		t.Errorf("light load: side=%s ΔI=%v, want right/negative", side, d)
	}
}

func TestOperateAtDemandNominalRail(t *testing.T) {
	// When the converter ratio is matched and the demand equals the
	// deliverable power at nominal rail, the rail should sit near nominal.
	c := testCircuit()
	env := pv.STC
	c.Conv.SetRatio(c.MatchedRatio(curve(c, env)))
	demand := c.AvailableMax(curve(c, env))
	op := c.OperateAtDemand(curve(c, env), demand)
	if math.Abs(op.VLoad-c.VNominal) > 0.06*c.VNominal {
		t.Errorf("rail at %v V, want ≈ %v V", op.VLoad, c.VNominal)
	}
	if op.PLoad < 0.97*demand {
		t.Errorf("delivered %v of demanded %v", op.PLoad, demand)
	}
}

func TestMatchedRatioDark(t *testing.T) {
	c := testCircuit()
	c.Conv.SetRatio(2.2)
	if got := c.MatchedRatio(curve(c, pv.Env{Irradiance: 0, CellTemp: 25})); got != 2.2 {
		t.Errorf("dark MatchedRatio = %v, want current k", got)
	}
}

// curve samples the circuit's generator under env.
func curve(c *Circuit, env pv.Env) *pv.Curve {
	cv := c.Gen.At(env)
	return &cv
}
