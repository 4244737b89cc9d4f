// Package sched implements the per-core load-adaptation policies compared
// in Table 6. Each policy answers one question the MPPT loop asks over and
// over: when the tracked power budget grows or shrinks by one step, which
// core's DVFS level moves?
//
//   - OptTPR is the paper's contribution (MPPT&Opt): a throughput-power
//     ratio table (Figure 10) gives extra watts to the core with the best
//     marginal performance and reclaims watts from the core with the worst.
//   - RoundRobin (MPPT&RR) spreads budget variation evenly across cores.
//   - IndividualCore (MPPT&IC) tunes one core to its extreme before
//     touching the next.
//   - PlanBudget is the non-tracking Fixed-Power baseline's planner: a
//     greedy knapsack equivalent to the paper's linear-programming
//     scheduling under a constant budget.
package sched

import (
	"solarcore/internal/mcore"
)

// Allocator decides which core moves when the MPPT loop raises or lowers
// the multi-core load by one DVFS step.
type Allocator interface {
	// Name returns the Table 6 policy name.
	Name() string
	// Raise moves one core up one operating point; false when every core is
	// already at the top.
	Raise(chip *mcore.Chip) bool
	// Lower moves one core down one operating point (possibly gating it);
	// false when every core is already gated.
	Lower(chip *mcore.Chip) bool
	// Reset clears any cursor state at the start of a run.
	Reset()
}

// OptTPR is the SolarCore allocation policy (MPPT&Opt): highest
// throughput-power ratio receives power first, lowest gives it up first
// (Section 4.3, Figures 10-12).
type OptTPR struct{}

// Name returns the Table 6 policy name.
func (OptTPR) Name() string { return "MPPT&Opt" }

// Reset is a no-op; the TPR table is recomputed from live counters.
func (OptTPR) Reset() {}

// Raise steps up the core with the best marginal throughput per watt.
func (OptTPR) Raise(chip *mcore.Chip) bool {
	best, bestTPR := -1, 0.0
	for i := 0; i < chip.NumCores(); i++ {
		if tpr := chip.TPRUp(i); tpr > bestTPR {
			best, bestTPR = i, tpr
		}
	}
	if best < 0 {
		return false
	}
	return chip.StepUp(best)
}

// Lower steps down the core whose last watt buys the least throughput.
func (OptTPR) Lower(chip *mcore.Chip) bool {
	worst, worstTPR := -1, 0.0
	for i := 0; i < chip.NumCores(); i++ {
		if chip.Level(i) == mcore.Gated {
			continue
		}
		tpr := chip.TPRDown(i)
		if tpr <= 0 {
			continue
		}
		if worst < 0 || tpr < worstTPR {
			worst, worstTPR = i, tpr
		}
	}
	if worst < 0 {
		return false
	}
	return chip.StepDown(worst)
}

// RoundRobin is the MPPT&RR policy: budget variation is distributed across
// cores in cyclic order, leaving every core at a moderate operating point.
type RoundRobin struct {
	cursor int
}

// Name returns the Table 6 policy name.
func (*RoundRobin) Name() string { return "MPPT&RR" }

// Reset rewinds the cursor.
func (r *RoundRobin) Reset() { r.cursor = 0 }

// Raise steps up the next core in cyclic order that can move.
func (r *RoundRobin) Raise(chip *mcore.Chip) bool {
	return r.next(chip, (*mcore.Chip).StepUp)
}

// Lower steps down the next core in cyclic order that can move.
func (r *RoundRobin) Lower(chip *mcore.Chip) bool {
	return r.next(chip, (*mcore.Chip).StepDown)
}

func (r *RoundRobin) next(chip *mcore.Chip, step func(*mcore.Chip, int) bool) bool {
	n := chip.NumCores()
	for tries := 0; tries < n; tries++ {
		core := r.cursor % n
		r.cursor = (r.cursor + 1) % n
		if step(chip, core) {
			return true
		}
	}
	return false
}

// IndividualCore is the MPPT&IC policy: keep tuning one core until it hits
// its highest (or lowest) operating point before touching the next, which
// concentrates the solar power into few cores.
type IndividualCore struct{}

// Name returns the Table 6 policy name.
func (IndividualCore) Name() string { return "MPPT&IC" }

// Reset is a no-op.
func (IndividualCore) Reset() {}

// Raise steps up the lowest-numbered core that is not yet at the top.
func (IndividualCore) Raise(chip *mcore.Chip) bool {
	for i := 0; i < chip.NumCores(); i++ {
		if chip.StepUp(i) {
			return true
		}
	}
	return false
}

// Lower steps down the highest-numbered core that is not yet gated, so the
// concentration built by Raise is preserved.
func (IndividualCore) Lower(chip *mcore.Chip) bool {
	for i := chip.NumCores() - 1; i >= 0; i-- {
		if chip.StepDown(i) {
			return true
		}
	}
	return false
}

// policies is the single source of truth for the Table 6 policy set:
// the paper's order, each name bound to a factory for a fresh allocator.
// Every lookup (ByName), listing (Names, Allocators) and the facade's
// Policies() derive from this table.
var policies = []struct {
	name string
	make func() Allocator
}{
	{"MPPT&IC", func() Allocator { return IndividualCore{} }},
	{"MPPT&RR", func() Allocator { return &RoundRobin{} }},
	{"MPPT&Opt", func() Allocator { return OptTPR{} }},
}

// Names lists the Table 6 policy names in the paper's order.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.name
	}
	return out
}

// ByName returns a fresh allocator for a Table 6 policy name.
func ByName(name string) (Allocator, bool) {
	for _, p := range policies {
		if p.name == name {
			return p.make(), true
		}
	}
	return nil, false
}

// PlanBudget configures the chip for a fixed power budget: starting from
// all cores gated, it greedily steps up the best throughput-per-watt core
// while the chip's total power stays within the budget. This is the
// Fixed-Power baseline's "linear programming optimization with a fixed
// power budget" (Table 6) in its exact greedy form, against the chip's
// current sample (mcore.Chip.At). A greedy step moves one core, so only
// that core's DeltaUp is derived again; the chip keeps the others.
//
// It returns the planned chip power.
func PlanBudget(chip *mcore.Chip, budget float64) float64 {
	for i := 0; i < chip.NumCores(); i++ {
		_ = chip.SetLevel(i, mcore.Gated) // i and Gated are in range by construction
	}
	power := 0.0
	for {
		best, bestTPR := -1, 0.0
		var bestDP float64
		for i := 0; i < chip.NumCores(); i++ {
			dT, dP, ok := chip.DeltaUp(i)
			if !ok || dP <= 0 || power+dP > budget {
				continue
			}
			if tpr := dT / dP; tpr > bestTPR {
				best, bestTPR, bestDP = i, tpr, dP
			}
		}
		if best < 0 {
			return power
		}
		chip.StepUp(best)
		power += bestDP
	}
}
