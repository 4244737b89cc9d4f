package dc

import (
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/mcore"
	"solarcore/internal/pv"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

func testCluster(t *testing.T, nodes int, overhead, cap float64) *Cluster {
	t.Helper()
	var mixes []workload.Mix
	for _, name := range []string{"HM2", "ML2", "M2"} {
		m, err := workload.MixByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, m)
	}
	c, err := New(Config{Nodes: nodes, Mixes: mixes, NodeOverheadW: overhead, NodeCapW: cap})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Error("zero nodes should error")
	}
	if _, err := New(Config{Nodes: 2}); err == nil {
		t.Error("no mixes should error")
	}
	m, _ := workload.MixByName("H1")
	if _, err := New(Config{Nodes: 2, Mixes: []workload.Mix{m}, NodeOverheadW: -1}); err == nil {
		t.Error("negative overhead should error")
	}
	if _, err := New(Config{Nodes: 1, Mixes: []workload.Mix{{Name: "bad", Programs: []string{"x"}}}}); err == nil {
		t.Error("bad mix should error")
	}
}

func TestClusterStartsParked(t *testing.T) {
	c := testCluster(t, 4, 20, 0)
	if c.ActiveNodes() != 0 {
		t.Errorf("fresh cluster has %d active nodes", c.ActiveNodes())
	}
	if c.Power() != 0 {
		t.Errorf("parked cluster draws %v W", c.Power())
	}
}

func TestFillBudgetRespectsBudget(t *testing.T) {
	c := testCluster(t, 4, 20, 0)
	for _, budget := range []float64{30, 80, 200, 500, 1200} {
		p := c.FillBudget(budget)
		if p > budget+1e-9 {
			t.Errorf("budget %v: filled to %v", budget, p)
		}
	}
}

func TestConsolidationEmergesFromOverhead(t *testing.T) {
	// At a budget that could feed 4 nodes' chips but wastes 4 overheads,
	// the TPR allocator should concentrate on fewer nodes.
	withOverhead := testCluster(t, 4, 40, 0)
	withOverhead.FillBudget(120)
	free := testCluster(t, 4, 0, 0)
	free.FillBudget(120)
	if a, b := withOverhead.ActiveNodes(), free.ActiveNodes(); a >= b {
		t.Errorf("overheaded cluster active=%d, free cluster active=%d — overhead should consolidate", a, b)
	}
	if withOverhead.ActiveNodes() == 0 {
		t.Error("consolidated to nothing")
	}
}

func TestNodeCapRespected(t *testing.T) {
	c := testCluster(t, 3, 10, 80)
	c.FillBudget(10000)
	for _, n := range c.Nodes {
		if p := n.Power(); p > 80+1e-9 {
			t.Errorf("%s exceeds its 80 W cap: %.1f W", n.Name, p)
		}
	}
	// Cluster saturates below nodes × cap.
	if total := c.Power(); total > 3*80+1e-9 {
		t.Errorf("cluster power %v exceeds cap sum", total)
	}
}

func TestGlobalBeatsUniformSplit(t *testing.T) {
	// Global TPR allocation across heterogeneous nodes must beat giving
	// each node an equal share of the budget.
	budget := 260.0
	global := testCluster(t, 4, 25, 0)
	global.FillBudget(budget)
	globalT := global.Throughput()

	uniform := testCluster(t, 4, 25, 0)
	share := budget / 4
	for _, n := range uniform.Nodes {
		// Fill each node independently to its share (overhead included).
		for {
			best, bestTPR, bestDP := -1, 0.0, 0.0
			activation := 0.0
			if !n.Active() {
				activation = 25
			}
			for ci := 0; ci < n.Chip.NumCores(); ci++ {
				dT, dp, ok := n.Chip.DeltaUp(ci)
				if !ok || dp <= 0 {
					continue
				}
				dp += activation
				if n.Power()+dp > share {
					continue
				}
				if tpr := dT / dp; tpr > bestTPR {
					best, bestTPR, bestDP = ci, tpr, dp
				}
			}
			if best < 0 {
				break
			}
			_ = bestDP
			n.Chip.StepUp(best)
		}
	}
	uniformT := uniform.Throughput()
	if globalT < uniformT {
		t.Errorf("global %v GIPS below uniform split %v", globalT, uniformT)
	}
}

func TestRaiseLowerSaturation(t *testing.T) {
	c := testCluster(t, 2, 15, 0)
	raise := func() bool { // one DVFS step to the cluster-wide best core
		ni, core, _, ok := c.bestRaise()
		return ok && c.Nodes[ni].Chip.StepUp(core)
	}
	raises := 0
	for raise() {
		raises++
		if raises > 500 {
			t.Fatal("raise never saturates")
		}
	}
	if c.ActiveNodes() != 2 {
		t.Error("full cluster should have every node active")
	}
	lowers := 0
	for c.Lower() {
		lowers++
		if lowers > 500 {
			t.Fatal("lower never saturates")
		}
	}
	if raises != lowers || c.Power() != 0 {
		t.Errorf("raises %d, lowers %d, final power %v", raises, lowers, c.Power())
	}
}

func TestRunDayCluster(t *testing.T) {
	// A 4-node cluster on a 4-module array.
	tr := atmos.Generate(atmos.AZ, atmos.Apr, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 4, 25, 0)
	res := RunDay(day, c, 2, nil)
	if res.SolarWh <= 0 || res.GInstrSolar <= 0 {
		t.Fatalf("empty cluster day: %+v", res)
	}
	if u := res.Utilization(); u < 0.5 || u > 1 {
		t.Errorf("cluster utilization %.3f", u)
	}
	if res.MeanActiveNodes <= 0 || res.MeanActiveNodes > 4 {
		t.Errorf("mean active nodes %.2f", res.MeanActiveNodes)
	}
	if res.SolarMin > res.DaytimeMin+1e-6 {
		t.Error("solar minutes exceed daytime")
	}
}

func TestRunDayDefaultsAndChipOverride(t *testing.T) {
	tr := atmos.Generate(atmos.TN, atmos.Jul, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := workload.MixByName("L1")
	cfg := Config{Nodes: 2, Mixes: []workload.Mix{m}, Chip: mcore.BigLittleConfig()}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := RunDay(day, c, 0, nil) // default step
	if res.SolarWh <= 0 {
		t.Errorf("heterogeneous cluster day empty: %+v", res)
	}
}

func TestFairShareBaseline(t *testing.T) {
	budget := 260.0
	global := testCluster(t, 4, 25, 0)
	global.FillBudget(budget)

	fair := testCluster(t, 4, 25, 0)
	p := fair.FillBudgetFairShare(budget)
	if p > budget+1e-9 {
		t.Errorf("fair share filled to %v over budget %v", p, budget)
	}
	if fair.ActiveNodes() < global.ActiveNodes() {
		t.Errorf("fair share should spread wider: %d vs %d nodes",
			fair.ActiveNodes(), global.ActiveNodes())
	}
	if global.Throughput() < fair.Throughput() {
		t.Errorf("global TPR %v GIPS below fair share %v", global.Throughput(), fair.Throughput())
	}
}

func TestFairShareTinyBudget(t *testing.T) {
	// A budget below one node's activation cost per share leaves the fair
	// cluster dark while the global allocator still lights one node.
	fair := testCluster(t, 6, 40, 0)
	fair.FillBudgetFairShare(90) // 15 W/node share < 40 W overhead
	global := testCluster(t, 6, 40, 0)
	global.FillBudget(90)
	if fair.ActiveNodes() >= global.ActiveNodes() && global.ActiveNodes() > 0 {
		t.Errorf("expected consolidation advantage: fair %d vs global %d",
			fair.ActiveNodes(), global.ActiveNodes())
	}
}

func TestPerNodeBreakdown(t *testing.T) {
	tr := atmos.Generate(atmos.AZ, atmos.Apr, atmos.GenConfig{})
	day, err := sim.NewSolarDay(tr, pv.BP3180N(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 4, 25, 0)
	res := RunDay(day, c, 2, nil)
	if len(res.PerNode) != 4 {
		t.Fatalf("per-node entries = %d", len(res.PerNode))
	}
	var sumWh, sumGI float64
	for _, n := range res.PerNode {
		sumWh += n.SolarWh
		sumGI += n.GInstrSolar
		if n.ActiveMin > res.DaytimeMin+1e-6 {
			t.Errorf("%s active %v min, more than daytime", n.Name, n.ActiveMin)
		}
	}
	if diff := (sumWh - res.SolarWh) / res.SolarWh; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-node energy %.2f does not sum to cluster %.2f", sumWh, res.SolarWh)
	}
	if diff := (sumGI - res.GInstrSolar) / res.GInstrSolar; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-node work does not sum: %.1f vs %.1f", sumGI, res.GInstrSolar)
	}
}
