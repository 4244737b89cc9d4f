package tracker

import (
	"testing"

	"solarcore/internal/power"
	"solarcore/internal/pv"
)

// shadedRig builds a partially shaded 3-module string whose P-V curve has
// two peaks, with the global one at the high-current (low-voltage) end.
func shadedRig() (*pv.ShadedString, float64) {
	s := pv.NewShadedString(pv.BP3180N(), []float64{1, 1, 0.3})
	// Load sized so mid-range converter ratios reach both peaks.
	mpp := s.MPP(pv.STC)
	return s, (mpp.V / mpp.I) / (9 * 0.96) // matched near k = 3
}

func TestShadedStringHasDecoyPeak(t *testing.T) {
	s, _ := shadedRig()
	peaks := s.LocalMPPs(pv.STC)
	if len(peaks) < 2 {
		t.Fatalf("want a multi-peak curve, got %d peaks", len(peaks))
	}
	global := s.MPP(pv.STC)
	decoy := 0.0
	for _, p := range peaks {
		if p.P < global.P*0.999 && p.P > decoy {
			decoy = p.P
		}
	}
	if decoy == 0 || decoy > 0.85*global.P {
		t.Fatalf("decoy peak %.1f W vs global %.1f W — want a meaningful trap", decoy, global.P)
	}
}

func TestPerturbObserveTrapsOnDecoy(t *testing.T) {
	// Start the converter near the wrong (low-power) peak: P&O climbs the
	// local hill and never leaves it.
	s, r := shadedRig()
	circuit := power.NewCircuit(s)
	global := s.MPP(pv.STC)

	// Park near the high-voltage decoy: a large ratio puts the panel-side
	// voltage up where the shaded module still conducts.
	circuit.Conv.SetRatio(circuit.Conv.KMax)
	po := &PerturbObserve{}
	po.Reset()
	for i := 0; i < 600; i++ {
		po.Step(circuit, at(circuit.Gen, pv.STC), r)
	}
	settled := circuit.Operate(at(circuit.Gen, pv.STC), r).PLoad
	if settled > 0.9*global.P*circuit.Conv.Efficiency {
		t.Skipf("P&O escaped the decoy on this geometry (settled %.1f W)", settled)
	}
	if settled < 0.2*global.P*circuit.Conv.Efficiency {
		t.Errorf("P&O should still hold a local peak, got %.1f W", settled)
	}
}

func TestGlobalScanEscapesDecoy(t *testing.T) {
	s, r := shadedRig()
	circuit := power.NewCircuit(s)
	global := s.MPP(pv.STC)

	circuit.Conv.SetRatio(circuit.Conv.KMax) // same trap start as P&O
	gs := &GlobalScan{RescanPeriod: 40, ScanPoints: 32}
	gs.Reset()
	for i := 0; i < 600; i++ {
		gs.Step(circuit, at(circuit.Gen, pv.STC), r)
	}
	settled := circuit.Operate(at(circuit.Gen, pv.STC), r).PLoad
	want := 0.9 * global.P * circuit.Conv.Efficiency
	if settled < want {
		t.Errorf("GlobalScan settled at %.1f W, want ≥ %.1f W (global peak)", settled, want)
	}
}

func TestGlobalScanOnUniformPanel(t *testing.T) {
	// No shading: GlobalScan must match the classic trackers.
	gen := bpGen()
	r := matchedLoad(gen)
	ev := Evaluate(&GlobalScan{RescanPeriod: 50}, gen, r, func(float64) pv.Env { return pv.STC }, 120, 0.2)
	tail := Evaluation{Samples: ev.Samples[len(ev.Samples)/2:]}
	if eff := tail.TrackingEfficiency(); eff < 0.93 {
		t.Errorf("GlobalScan settled efficiency %.3f on uniform panel", eff)
	}
}
