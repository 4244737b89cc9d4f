package tracker

import (
	"math"
	"testing"

	"solarcore/internal/power"
	"solarcore/internal/pv"
)

func bpGen() pv.Generator { return pv.NewModule(pv.BP3180N()) }

// matchedLoad returns a load resistance that lets the converter reach the
// MPP somewhere inside its k range at STC.
func matchedLoad(g pv.Generator) float64 {
	mpp := at(g, pv.STC).MPP()
	// Pick R so the matched k = sqrt(Rmpp/(R·η)) sits near the middle of
	// the range: with Rmpp = Vmpp/Impp ≈ 7 Ω and k≈2, R ≈ 7/(4·0.96) ≈ 1.8.
	rmpp := mpp.V / mpp.I
	return rmpp / (4 * 0.96)
}

func TestAllTrackersConvergeOnStaticSky(t *testing.T) {
	gen := bpGen()
	r := matchedLoad(gen)
	sched := func(float64) pv.Env { return pv.STC }
	for _, alg := range All() {
		ev := Evaluate(alg, gen, r, sched, 120, 0.2)
		// Judge only the settled half.
		tail := Evaluation{Algorithm: alg.Name(), Samples: ev.Samples[len(ev.Samples)/2:]}
		if eff := tail.TrackingEfficiency(); eff < 0.95 {
			t.Errorf("%s: settled tracking efficiency %.3f, want ≥ 0.95", alg.Name(), eff)
		}
	}
}

func TestTrackersFollowRamp(t *testing.T) {
	gen := bpGen()
	r := matchedLoad(gen)
	sched := Ramp(900, 350, 240, 30)
	for _, alg := range All() {
		ev := Evaluate(alg, gen, r, sched, 240, 0.2)
		if eff := ev.TrackingEfficiency(); eff < 0.88 {
			t.Errorf("%s: ramp tracking efficiency %.3f, want ≥ 0.88", alg.Name(), eff)
		}
	}
}

func TestConventionalTrackersLoseTheRail(t *testing.T) {
	// The paper's Section 2.3 point: ratio-only tracking cannot also hold
	// the load rail. Across a 900→350 W/m² ramp the rail must wander far
	// from nominal at SOME point for a fixed load (power changes ~2.5×, and
	// P = V²/R forces V to move with it).
	gen := bpGen()
	r := matchedLoad(gen)
	sched := Ramp(900, 350, 240, 30)
	for _, alg := range All() {
		ev := Evaluate(alg, gen, r, sched, 240, 0.2)
		worst := 0.0
		for _, s := range ev.Samples {
			if d := math.Abs(s.VLoad-12) / 12; d > worst {
				worst = d
			}
		}
		if worst < 0.15 {
			t.Errorf("%s: worst rail deviation %.2f — a fixed load should not hold the rail through a 2.5× power swing", alg.Name(), worst)
		}
	}
}

func TestPerturbObserveBouncesOffRails(t *testing.T) {
	gen := bpGen()
	circuit := power.NewCircuit(gen)
	circuit.Conv.SetRatio(circuit.Conv.KMax)
	po := &PerturbObserve{}
	po.Reset()
	for i := 0; i < 50; i++ {
		po.Step(circuit, at(circuit.Gen, pv.STC), 2)
	}
	if circuit.Conv.K >= circuit.Conv.KMax {
		t.Error("P&O stayed pinned at KMax")
	}
}

func TestIncCondDeadband(t *testing.T) {
	// Once settled at the MPP, IncCond should hold still (small k motion),
	// unlike P&O which oscillates by construction.
	gen := bpGen()
	r := matchedLoad(gen)
	ic := &IncCond{}
	circuit := power.NewCircuit(gen)
	ic.Reset()
	for i := 0; i < 600; i++ {
		ic.Step(circuit, at(circuit.Gen, pv.STC), r)
	}
	kSettled := circuit.Conv.K
	moves := 0
	for i := 0; i < 50; i++ {
		ic.Step(circuit, at(circuit.Gen, pv.STC), r)
		if circuit.Conv.K != kSettled {
			moves++
			kSettled = circuit.Conv.K
		}
	}
	if moves > 25 {
		t.Errorf("IncCond still moving %d/50 steps at steady state", moves)
	}
}

func TestFractionalVocTargetsFraction(t *testing.T) {
	gen := bpGen()
	r := matchedLoad(gen)
	fv := &FractionalVoc{K: 0.76, SamplePeriod: 10}
	circuit := power.NewCircuit(gen)
	fv.Reset()
	var op power.Operating
	for i := 0; i < 800; i++ {
		fv.Step(circuit, at(circuit.Gen, pv.STC), r)
		op = circuit.Operate(at(circuit.Gen, pv.STC), r)
	}
	want := 0.76 * at(gen, pv.STC).OpenCircuitVoltage()
	if math.Abs(op.VPanel-want)/want > 0.03 {
		t.Errorf("FracVoc settled at %.2f V, want ≈ %.2f V", op.VPanel, want)
	}
}

func TestEvaluationEmpty(t *testing.T) {
	var ev Evaluation
	if ev.TrackingEfficiency() != 0 || ev.RailExcursion(12) != 0 {
		t.Error("empty evaluation should report zeros")
	}
}

func TestRampClamps(t *testing.T) {
	s := Ramp(100, 200, 10, 25)
	if g := s(-5).Irradiance; g != 100 {
		t.Errorf("pre-start = %v", g)
	}
	if g := s(50).Irradiance; g != 200 {
		t.Errorf("post-end = %v", g)
	}
	if g := s(5).Irradiance; g != 150 {
		t.Errorf("midpoint = %v", g)
	}
}

// at samples g under env.
func at(g pv.Generator, env pv.Env) *pv.Curve {
	cv := g.At(env)
	return &cv
}
