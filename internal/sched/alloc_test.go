package sched

import (
	"testing"
	"testing/quick"

	"solarcore/internal/mcore"
	"solarcore/internal/workload"
)

func hm2Chip(t *testing.T) *mcore.Chip {
	t.Helper()
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	mix, err := workload.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	if err := mix.Apply(chip); err != nil {
		t.Fatal(err)
	}
	chip.SetAllLevels(mcore.Gated)
	return chip
}

func TestOptRaisesBestTPRCore(t *testing.T) {
	chip := hm2Chip(t)
	chip.SetAllLevels(2)
	// Identify the best marginal core by hand.
	best, bestTPR := -1, 0.0
	for i := 0; i < 8; i++ {
		if tpr := chip.TPRUp(i); tpr > bestTPR {
			best, bestTPR = i, tpr
		}
	}
	OptTPR{}.Raise(chip)
	if chip.Level(best) != 3 {
		t.Errorf("Opt raised %v, want core %d", chip.Levels(), best)
	}
}

func TestOptLowerPrefersWorstCore(t *testing.T) {
	chip := hm2Chip(t)
	chip.SetAllLevels(3)
	worst, worstTPR := -1, 0.0
	for i := 0; i < 8; i++ {
		tpr := chip.TPRDown(i)
		if worst < 0 || (tpr > 0 && tpr < worstTPR) {
			worst, worstTPR = i, tpr
		}
	}
	OptTPR{}.Lower(chip)
	if chip.Level(worst) != 2 {
		t.Errorf("Opt lowered %v, want core %d", chip.Levels(), worst)
	}
}

func TestOptExtremes(t *testing.T) {
	chip := hm2Chip(t)
	chip.SetAllLevels(5)
	if (OptTPR{}).Raise(chip) {
		t.Error("Raise with all cores at top should fail")
	}
	chip.SetAllLevels(mcore.Gated)
	if (OptTPR{}).Lower(chip) {
		t.Error("Lower with all cores gated should fail")
	}
	// From all gated, Raise must ungate something.
	if !(OptTPR{}).Raise(chip) {
		t.Error("Raise from all gated should succeed")
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	chip := hm2Chip(t)
	rr := &RoundRobin{}
	rr.Reset()
	for i := 0; i < 16; i++ {
		if !rr.Raise(chip) {
			t.Fatal("raise failed early")
		}
	}
	for i, lvl := range chip.Levels() {
		if lvl != 1 {
			t.Errorf("core %d at level %d after 16 raises, want 1 everywhere", i, lvl)
		}
	}
	for i := 0; i < 8; i++ {
		rr.Lower(chip)
	}
	for i, lvl := range chip.Levels() {
		if lvl != 0 {
			t.Errorf("core %d at level %d after 8 lowers, want 0", i, lvl)
		}
	}
}

func TestRoundRobinSkipsSaturated(t *testing.T) {
	chip := hm2Chip(t)
	chip.SetAllLevels(5)
	chip.SetLevel(3, 2)
	rr := &RoundRobin{}
	if !rr.Raise(chip) {
		t.Fatal("raise should find the one tunable core")
	}
	if chip.Level(3) != 3 {
		t.Errorf("levels %v, want core 3 raised", chip.Levels())
	}
	chip.SetAllLevels(5)
	if rr.Raise(chip) {
		t.Error("raise with everything at top should fail")
	}
}

func TestIndividualCoreConcentrates(t *testing.T) {
	chip := hm2Chip(t)
	ic := IndividualCore{}
	// 6 raises from all-gated: core 0 gets gated→0→1→2→3→4; the 7th touches core 0 again.
	for i := 0; i < 6; i++ {
		ic.Raise(chip)
	}
	levels := chip.Levels()
	if levels[0] != 5 {
		t.Errorf("levels %v, want core 0 saturated first", levels)
	}
	if levels[1] != mcore.Gated {
		t.Errorf("levels %v, want core 1 untouched", levels)
	}
	ic.Raise(chip)
	if chip.Level(1) != 0 {
		t.Errorf("7th raise should ungate core 1: %v", chip.Levels())
	}
	// Lower takes from the tail first.
	chip.SetAllLevels(3)
	ic.Lower(chip)
	if chip.Level(7) != 2 {
		t.Errorf("lower should hit core 7 first: %v", chip.Levels())
	}
}

func TestAllocatorsRegistry(t *testing.T) {
	names := Names()
	if len(names) != 3 {
		t.Fatalf("%d policies, want 3", len(names))
	}
	want := []string{"MPPT&IC", "MPPT&RR", "MPPT&Opt"}
	for i, name := range names {
		if name != want[i] {
			t.Errorf("policy %d = %s, want %s", i, name, want[i])
		}
		a, ok := ByName(name)
		if !ok || a.Name() != name {
			t.Fatalf("ByName(%s) failed", name)
		}
		a.Reset() // must not panic
	}
	if _, ok := ByName("MPPT&Magic"); ok {
		t.Error("unknown policy should not resolve")
	}
}

func TestPlanBudgetRespectsBudget(t *testing.T) {
	chip := hm2Chip(t)
	prop := func(bRaw uint8) bool {
		budget := float64(bRaw) // 0..255 W
		planned := PlanBudget(chip, budget)
		diff := planned - chip.Power()
		return planned <= budget+1e-9 && diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPlanBudgetMonotone(t *testing.T) {
	chip := hm2Chip(t)
	prevT := 0.0
	for _, b := range []float64{10, 25, 50, 75, 100, 125, 200} {
		PlanBudget(chip, b)
		tp := chip.Throughput()
		if tp < prevT-1e-9 {
			t.Errorf("budget %v: throughput %v fell below %v", b, tp, prevT)
		}
		prevT = tp
	}
}

func TestPlanBudgetZero(t *testing.T) {
	chip := hm2Chip(t)
	chip.SetAllLevels(5)
	if got := PlanBudget(chip, 0); got != 0 {
		t.Errorf("zero budget planned %v W", got)
	}
	for i, lvl := range chip.Levels() {
		if lvl != mcore.Gated {
			t.Errorf("core %d not gated under zero budget", i)
		}
	}
}

// TestCappedCoreIsNotACandidate: a core at its fault cap offers no
// raise, so OptTPR raises the best core that can move and PlanBudget
// spends its budget on the others instead of charging the capped core's
// step without moving it. The capped core is the one a raise would pick
// first, failed or held at level 1.
func TestCappedCoreIsNotACandidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		level int // the capped core's level, at its cap
	}{{"failed", mcore.Gated}, {"capped at 1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			chip := hm2Chip(t)
			chip.SetAllLevels(tc.level)
			best, bestTPR := -1, 0.0
			for i := 0; i < chip.NumCores(); i++ {
				if tpr := chip.TPRUp(i); tpr > bestTPR {
					best, bestTPR = i, tpr
				}
			}
			if err := chip.SetLevelCap(best, tc.level); err != nil {
				t.Fatal(err)
			}
			if _, _, ok := chip.DeltaUp(best); ok || chip.TPRUp(best) != 0 {
				t.Errorf("DeltaUp/TPRUp offer a raise of core %d at its cap", best)
			}
			before := chip.Power()
			if !(OptTPR{}).Raise(chip) {
				t.Fatalf("Raise refused with seven cores free: %v", chip.Levels())
			}
			if chip.Level(best) != tc.level || chip.Power() <= before {
				t.Errorf("Raise moved nothing useful: levels %v", chip.Levels())
			}

			const budget = 60
			planned := PlanBudget(chip, budget)
			if got := chip.Power(); planned > budget || planned-got > 1e-9 || got-planned > 1e-9 {
				t.Errorf("planned %v W for a %v W budget, chip draws %v W", planned, budget, got)
			}
			if chip.Level(best) > tc.level {
				t.Errorf("core %d at level %d above its cap %d", best, chip.Level(best), tc.level)
			}
			raised := 0
			for i := 0; i < chip.NumCores(); i++ {
				if chip.Level(i) != mcore.Gated {
					raised++
				}
			}
			if raised == 0 {
				t.Errorf("PlanBudget left every core gated: %v", chip.Levels())
			}
		})
	}
}

func TestPlanBudgetBeatsNaiveUniform(t *testing.T) {
	// Under a tight budget the greedy TPR plan should achieve at least the
	// throughput of the best uniform-level assignment that fits.
	chip := hm2Chip(t)
	budget := 60.0
	PlanBudget(chip, budget)
	planned := chip.Throughput()

	bestUniform := 0.0
	for lvl := 0; lvl < chip.NumLevels(); lvl++ {
		chip.SetAllLevels(lvl)
		if chip.Power() <= budget && chip.Throughput() > bestUniform {
			bestUniform = chip.Throughput()
		}
	}
	if planned < bestUniform {
		t.Errorf("greedy plan %v GIPS below best uniform %v", planned, bestUniform)
	}
}
