package mcore

import (
	"math"
	"testing"
)

func TestBigLittleConfig(t *testing.T) {
	cfg := BigLittleConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(cfg.Classes) != 8 {
		t.Fatalf("classes = %d", len(cfg.Classes))
	}
	if cfg.Classes[0].Perf != 1 || cfg.Classes[7].Perf != 0.5 {
		t.Errorf("class layout wrong: %+v", cfg.Classes)
	}
}

func TestClassesValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Classes = []CoreClass{{1, 1}} // wrong length
	if err := cfg.Validate(); err == nil {
		t.Error("length mismatch should be invalid")
	}
	cfg = BigLittleConfig()
	cfg.Classes[3] = CoreClass{Perf: 0, Power: 1}
	if err := cfg.Validate(); err == nil {
		t.Error("zero perf should be invalid")
	}
}

func TestLittleCoresScalePowerAndThroughput(t *testing.T) {
	c := MustNewChip(BigLittleConfig())
	c.SetAllLevels(5)
	// All cores share the default activity, so the big/little ratio is the
	// class ratio exactly.
	big, little := c.CorePower(0), c.CorePower(7)
	if math.Abs(little/big-0.25) > 1e-9 {
		t.Errorf("little/big power = %v, want 0.25", little/big)
	}
	bigT, littleT := c.CoreThroughput(0), c.CoreThroughput(7)
	if math.Abs(littleT/bigT-0.5) > 1e-9 {
		t.Errorf("little/big throughput = %v, want 0.5", littleT/bigT)
	}
}

func TestLittleCoresWinLowBudgetTPR(t *testing.T) {
	// Little cores deliver half the performance for a quarter of the power:
	// their TPR is 2× a big core's, so marginal watts should flow to them
	// first when everything sits gated.
	c := MustNewChip(BigLittleConfig())
	c.SetAllLevels(Gated)
	bigTPR := c.TPRUp(0)
	littleTPR := c.TPRUp(7)
	if littleTPR <= bigTPR {
		t.Errorf("little TPR %v not above big %v", littleTPR, bigTPR)
	}
	if math.Abs(littleTPR/bigTPR-2) > 1e-9 {
		t.Errorf("TPR ratio = %v, want 2", littleTPR/bigTPR)
	}
}

func TestHomogeneousUnaffectedByNilClasses(t *testing.T) {
	a := MustNewChip(DefaultConfig())
	cfg := DefaultConfig()
	cfg.Classes = make([]CoreClass, cfg.Cores)
	for i := range cfg.Classes {
		cfg.Classes[i] = CoreClass{Perf: 1, Power: 1}
	}
	b := MustNewChip(cfg)
	a.SetAllLevels(3)
	b.SetAllLevels(3)
	if a.Power() != b.Power() || a.Throughput() != b.Throughput() {
		t.Error("identity classes changed behaviour")
	}
}
