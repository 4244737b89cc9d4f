package mcore_test

import (
	"math"
	"testing"

	"solarcore/internal/mcore"
	"solarcore/internal/workload"
)

// model is the Table 4 formula evaluated from raw Demand values, in the
// chip's operand order, so a sampled read must match it bit for bit.
type model struct {
	cfg       mcore.Config
	ipc, ceff []float64
}

func (m model) class(core int) mcore.CoreClass {
	if m.cfg.Classes == nil {
		return mcore.CoreClass{Perf: 1, Power: 1}
	}
	return m.cfg.Classes[core]
}

// unit: return=W
func (m model) power(core, lvl int) float64 {
	if lvl == mcore.Gated {
		return 0
	}
	p := m.cfg.Points[lvl]
	base := m.ceff[core]*p.VoltV*p.VoltV*p.FreqGHz + m.cfg.LeakWPerV*p.VoltV + m.cfg.ActiveWatts
	return base * m.class(core).Power
}

// unit: return=GIPS
func (m model) throughput(core, lvl int) float64 {
	if lvl == mcore.Gated {
		return 0
	}
	return m.ipc[core] * m.cfg.Points[lvl].FreqGHz * m.class(core).Perf
}

// tpr is ΔT/ΔP, or 0 when the move is impossible or saves no power.
//
// unit: dT=GIPS, dP=W, return=GIPS/W
func tpr(dT, dP float64, ok bool) float64 {
	if !ok || dP <= 0 {
		return 0
	}
	return dT / dP
}

func same(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s = %v, want %v bit for bit", what, got, want)
	}
}

// TestOneSampleIsExact checks that every read after Chip.At(m) equals,
// bit for bit, the Table 4 formula applied to each activity's Demand(m):
// one sample per instant changes no result.
func TestOneSampleIsExact(t *testing.T) {
	bench, err := workload.ByName("art")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.NewTraceActivity(2.5,
		[]float64{0.7, 1.4, 0.9, 1.8}, []float64{2.1, 3.3, 2.6, 3.9})
	if err != nil {
		t.Fatal(err)
	}
	activities := []struct {
		name string
		of   func(core int) mcore.Activity
	}{
		{"Instance", func(core int) mcore.Activity { return workload.NewInstance(bench, core) }},
		{"TraceActivity", func(int) mcore.Activity { return trace }},
		{"ConstantActivity", func(core int) mcore.Activity {
			return mcore.ConstantActivity{IPC: 0.5 + 0.2*float64(core), CeffNF: 3.1 - 0.15*float64(core)}
		}},
	}
	configs := []struct {
		name string
		cfg  mcore.Config
	}{
		{"Default", mcore.DefaultConfig()},
		{"BigLittle", mcore.BigLittleConfig()},
	}
	for _, cc := range configs {
		for _, ac := range activities {
			t.Run(cc.name+"/"+ac.name, func(t *testing.T) {
				chip := mcore.MustNewChip(cc.cfg)
				for i := 0; i < chip.NumCores(); i++ {
					if err := chip.SetActivity(i, ac.of(i)); err != nil {
						t.Fatal(err)
					}
				}
				// Gated, every level, a capped core held below its
				// request and a failed core.
				for i, l := range []int{mcore.Gated, 0, 1, 2, 3, 4, 5, 5} {
					if err := chip.SetLevel(i, l); err != nil {
						t.Fatal(err)
					}
				}
				if err := chip.SetLevelCap(6, 3); err != nil {
					t.Fatal(err)
				}
				if err := chip.SetLevelCap(7, mcore.Gated); err != nil {
					t.Fatal(err)
				}
				for _, m := range []float64{0, 37.5, 611.25, 1439} {
					chip.At(m)
					checkSample(t, chip, cc.cfg, ac.of, m)
				}
			})
		}
	}
}

func checkSample(t *testing.T, chip *mcore.Chip, cfg mcore.Config, of func(int) mcore.Activity, m float64) {
	t.Helper()
	n := chip.NumCores()
	want := model{cfg: cfg, ipc: make([]float64, n), ceff: make([]float64, n)}
	for i := 0; i < n; i++ {
		want.ipc[i], want.ceff[i] = of(i).Demand(m)
	}
	var power, throughput, minPower float64
	for i := 0; i < n; i++ {
		lvl := chip.Level(i)
		power += want.power(i, lvl)
		throughput += want.throughput(i, lvl)
		if p := want.power(i, 0); i == 0 || p < minPower {
			minPower = p
		}

		dT, dP, ok := chip.DeltaUp(i)
		wantOK := lvl < chip.LevelCap(i) // StepUp stops at the cap

		if ok != wantOK {
			t.Errorf("minute %v core %d: DeltaUp ok = %v", m, i, ok)
		}
		if wantOK {
			same(t, "DeltaUp dT", dT, want.throughput(i, lvl+1)-want.throughput(i, lvl))
			same(t, "DeltaUp dP", dP, want.power(i, lvl+1)-want.power(i, lvl))
		}
		same(t, "TPRUp", chip.TPRUp(i), tpr(dT, dP, ok))

		dT, dP, ok = chip.DeltaDown(i)
		wantOK = lvl != mcore.Gated
		if ok != wantOK {
			t.Errorf("minute %v core %d: DeltaDown ok = %v", m, i, ok)
		}
		if wantOK {
			same(t, "DeltaDown dT", dT, want.throughput(i, lvl)-want.throughput(i, lvl-1))
			same(t, "DeltaDown dP", dP, want.power(i, lvl)-want.power(i, lvl-1))
		}
		same(t, "TPRDown", chip.TPRDown(i), tpr(dT, dP, ok))
	}
	same(t, "Power", chip.Power(), power)
	same(t, "Throughput", chip.Throughput(), throughput)
	same(t, "MinPower", chip.MinPower(), minPower)
}

// TestSetActivitySamplesAtChipMinute checks that an activity assigned
// after At(m) is sampled at m, not at the chip's construction minute.
func TestSetActivitySamplesAtChipMinute(t *testing.T) {
	trace, err := workload.NewTraceActivity(1, []float64{1, 2, 3, 4}, []float64{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	chip.SetAllLevels(mcore.Gated)
	chip.SetLevel(0, 2)
	const m = 2.5
	chip.At(m)
	if err := chip.SetActivity(0, trace); err != nil {
		t.Fatal(err)
	}
	ipc, ceff := trace.Demand(m)
	want := model{cfg: chip.Config(), ipc: []float64{ipc}, ceff: []float64{ceff}}
	same(t, "Power", chip.Power(), want.power(0, 2))
	same(t, "Throughput", chip.Throughput(), want.throughput(0, 2))
}
