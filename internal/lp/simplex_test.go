package lp

import (
	"math"
	"testing"
	"testing/quick"

	"solarcore/internal/mcore"
	"solarcore/internal/sched"
	"solarcore/internal/workload"
)

func TestSolveTextbook(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, value 36.
	sol, err := Solve(Problem{
		C: []float64{3, 5},
		A: [][]float64{{1, 0}, {0, 2}, {3, 2}},
		B: []float64{4, 12, 18},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Value-36) > 1e-9 {
		t.Errorf("value = %v, want 36", sol.Value)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-6) > 1e-9 {
		t.Errorf("x = %v, want [2 6]", sol.X)
	}
}

func TestSolveDegenerateAndEdge(t *testing.T) {
	// Zero budget forces x = 0.
	sol, err := Solve(Problem{C: []float64{1, 1}, A: [][]float64{{1, 1}}, B: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Value != 0 {
		t.Errorf("value = %v, want 0", sol.Value)
	}
	// Unbounded: maximize x with no constraint touching it.
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{0}}, B: []float64{5}}); err != ErrUnbounded {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
	// Negative RHS rejected.
	if _, err := Solve(Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{-1}}); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Problem{
		{},
		{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}},
		{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("problem %d should be invalid", i)
		}
		if _, err := Solve(p); err == nil {
			t.Errorf("Solve(%d) should fail", i)
		}
	}
}

func TestSolveRandomKnapsacks(t *testing.T) {
	// Property: for single-constraint knapsack LPs the optimum is the
	// greedy fractional fill by value density.
	prop := func(vRaw, wRaw [5]uint8, capRaw uint8) bool {
		var c, w []float64
		for i := 0; i < 5; i++ {
			c = append(c, 1+float64(vRaw[i]))
			w = append(w, 1+float64(wRaw[i]))
		}
		capacity := 1 + float64(capRaw)
		sol, err := Solve(Problem{
			C: c,
			A: [][]float64{w, {1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 1, 0, 0}, {0, 0, 0, 1, 0}, {0, 0, 0, 0, 1}},
			B: []float64{capacity, 1, 1, 1, 1, 1},
		})
		if err != nil {
			return false
		}
		// Greedy fractional knapsack.
		type item struct{ v, w float64 }
		items := make([]item, 5)
		for i := range items {
			items[i] = item{c[i], w[i]}
		}
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				if items[j].v/items[j].w > items[i].v/items[i].w {
					items[i], items[j] = items[j], items[i]
				}
			}
		}
		left, want := capacity, 0.0
		for _, it := range items {
			take := math.Min(1, left/it.w)
			want += take * it.v
			left -= take * it.w
			if left <= 0 {
				break
			}
		}
		return math.Abs(sol.Value-want) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGreedyPlannerNearLPBound(t *testing.T) {
	// The validation the paper's Table 6 implies: the greedy TPR planner
	// used for Fixed-Power is near the LP-relaxation optimum across
	// budgets. The LP allows fractional (time-multiplexed) levels, so it is
	// a strict upper bound; greedy must land within a few percent.
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	m, err := workload.MixByName("HM2")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(chip); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []float64{30, 60, 90, 120, 150, 200} {
		sched.PlanBudget(chip, budget)
		greedy := chip.Throughput()
		bound, err := DVFSUpperBound(chip, budget)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if greedy > bound+1e-6 {
			t.Errorf("budget %v: greedy %v exceeds LP bound %v", budget, greedy, bound)
		}
		if greedy < 0.93*bound {
			t.Errorf("budget %v: greedy %v below 93%% of LP bound %v", budget, greedy, bound)
		}
	}
}

func TestDVFSRelaxationRestoresChip(t *testing.T) {
	chip := mcore.MustNewChip(mcore.DefaultConfig())
	chip.SetLevel(3, 4)
	chip.SetLevel(5, mcore.Gated)
	before, transitions := chip.Levels(), chip.Transitions()
	if _, err := DVFSUpperBound(chip, 80); err != nil {
		t.Fatal(err)
	}
	after := chip.Levels()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("chip levels mutated: %v → %v", before, after)
		}
	}
	if got := chip.Transitions(); got != transitions {
		t.Errorf("building the relaxation counted %d DVFS transitions", got-transitions)
	}

	// A capped core contributes nothing above its cap, so an unbounded
	// budget reaches every other core's top point and the capped core's
	// cap, not its top.
	const capped, cap = 2, 1
	if err := chip.SetLevelCap(capped, cap); err != nil {
		t.Fatal(err)
	}
	p := DVFSRelaxation(chip, 1e9)
	levels := chip.NumLevels()
	for l := cap + 1; l < levels; l++ {
		if c, pw := p.C[capped*levels+l], p.A[len(p.A)-1][capped*levels+l]; c != 0 || pw != 0 {
			t.Errorf("capped core column %d: throughput %v, power %v; want zero", l, c, pw)
		}
	}
	bound, err := DVFSUpperBound(chip, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < chip.NumCores(); i++ {
		want += chip.ThroughputAt(i, chip.LevelCap(i))
	}
	if math.Abs(bound-want) > 1e-9 {
		t.Errorf("unbounded LP bound %v, want %v with core %d held at its cap", bound, want, capped)
	}
}
