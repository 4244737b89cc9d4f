package workload

import (
	"fmt"
	"testing"

	"solarcore/internal/mcore"
)

func TestMixesMatchTable5(t *testing.T) {
	want := []string{"H1", "H2", "M1", "M2", "L1", "L2", "HM1", "HM2", "ML1", "ML2"}
	if len(Mixes) != len(want) {
		t.Fatalf("%d mixes, want %d", len(Mixes), len(want))
	}
	for i, m := range Mixes {
		if m.Name != want[i] {
			t.Errorf("mix %d = %s, want %s", i, m.Name, want[i])
		}
		if len(m.Programs) != 8 {
			t.Errorf("mix %s has %d programs, want 8", m.Name, len(m.Programs))
		}
		for _, p := range m.Programs {
			if _, err := ByName(p); err != nil {
				t.Errorf("mix %s references %v", m.Name, err)
			}
		}
	}
	h1, _ := MixByName("H1")
	for _, p := range h1.Programs {
		if p != "art" {
			t.Errorf("H1 should be art×8, got %v", h1.Programs)
		}
	}
	hm2, _ := MixByName("HM2")
	if hm2.Programs[2] != "art" || hm2.Programs[4] != "gcc" {
		t.Errorf("HM2 composition wrong: %v", hm2.Programs)
	}
}

func TestMixByNameUnknown(t *testing.T) {
	if _, err := MixByName("ZZ9"); err == nil {
		t.Error("unknown mix should error")
	}
}

func TestMixEPIOrdering(t *testing.T) {
	cfg := mcore.DefaultConfig()
	epi := func(name string) float64 {
		m, err := MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return m.MeanEPI(cfg)
	}
	// Class ordering across the mix families.
	if !(epi("H1") > epi("HM1") && epi("HM1") > epi("M1") && epi("M1") > epi("ML1") && epi("ML1") > epi("L1")) {
		t.Errorf("mix EPI ordering violated: H1=%.1f HM1=%.1f M1=%.1f ML1=%.1f L1=%.1f",
			epi("H1"), epi("HM1"), epi("M1"), epi("ML1"), epi("L1"))
	}
}

func TestMixApply(t *testing.T) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, _ := MixByName("HM2")
	if err := m.Apply(chip); err != nil {
		t.Fatal(err)
	}
	chip.SetAllLevels(5)
	// After applying a heterogeneous mix the cores must not all draw the
	// same power (different benchmarks, different capacitance).
	p0 := chip.CorePower(0)
	diverse := false
	for i := 1; i < 8; i++ {
		if chip.CorePower(i) != p0 {
			diverse = true
		}
	}
	if !diverse {
		t.Error("heterogeneous mix produced uniform core powers")
	}
}

func TestMixApplyCoreCountMismatch(t *testing.T) {
	cfg := mcore.DefaultConfig()
	cfg.Cores = 4
	chip := mcore.MustNewChip(cfg)
	m, _ := MixByName("H1")
	if err := m.Apply(chip); err == nil {
		t.Error("8-program mix on 4-core chip should error")
	}
}

func TestInstancesBadProgram(t *testing.T) {
	m := Mix{Name: "bad", Programs: []string{"nope"}}
	if _, err := m.Instances(); err == nil {
		t.Error("bad program should error")
	}
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	if err := m.Apply(chip); err == nil {
		t.Error("bad program should error in Apply")
	}
}

func TestSyntheticMix(t *testing.T) {
	m, err := SyntheticMix("S1", 3, 3, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Programs) != 8 || m.Kind != "synthetic" {
		t.Fatalf("mix = %+v", m)
	}
	// Class layout holds.
	for i, name := range m.Programs {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var want Class
		switch {
		case i < 3:
			want = HighEPI
		case i < 6:
			want = ModerateEPI
		default:
			want = LowEPI
		}
		if b.Class != want {
			t.Errorf("slot %d: %s is %v, want %v", i, name, b.Class, want)
		}
	}
	// Deterministic per seed, varies across seeds.
	m2, _ := SyntheticMix("S1", 3, 3, 2, 42)
	if fmt.Sprint(m.Programs) != fmt.Sprint(m2.Programs) {
		t.Error("same seed gave different mixes")
	}
	diff := false
	for s := int64(1); s < 20 && !diff; s++ {
		m3, _ := SyntheticMix("S1", 3, 3, 2, s)
		if fmt.Sprint(m3.Programs) != fmt.Sprint(m.Programs) {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds never changed the mix")
	}
	// A synthetic mix runs on a chip like any Table 5 mix.
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	if err := m.Apply(chip); err != nil {
		t.Fatal(err)
	}
	if _, err := SyntheticMix("bad", -1, 0, 0, 1); err == nil {
		t.Error("negative count should error")
	}
	if _, err := SyntheticMix("bad", 0, 0, 0, 1); err == nil {
		t.Error("empty mix should error")
	}
}
