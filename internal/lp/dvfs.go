package lp

import (
	"solarcore/internal/mcore"
)

// DVFSRelaxation builds the LP relaxation of the fixed-budget DVFS
// allocation problem the paper's Fixed-Power baseline solves: choose a
// (fractional) operating point per core maximizing total throughput under
// a chip power budget,
//
//	max  Σ_{i,l} T_{i,l}·x_{i,l}
//	s.t. Σ_l x_{i,l} ≤ 1            for every core i
//	     Σ_{i,l} P_{i,l}·x_{i,l} ≤ budget
//	     x ≥ 0.
//
// Fractional x model time-multiplexing between adjacent points, so the LP
// optimum upper-bounds every integral assignment, including the greedy
// planner in package sched. The columns read the chip's current sample
// (mcore.Chip.At) and stop at each core's level cap: a column above the
// cap stays zero, so a capped core adds nothing there. Building the
// problem writes no level.
func DVFSRelaxation(chip *mcore.Chip, budget float64) Problem {
	cores := chip.NumCores()
	levels := chip.NumLevels()
	n := cores * levels

	c := make([]float64, n)
	pw := make([]float64, n)
	for i := 0; i < cores; i++ {
		for l := 0; l <= chip.LevelCap(i); l++ {
			c[i*levels+l] = chip.ThroughputAt(i, l)
			pw[i*levels+l] = chip.PowerAt(i, l)
		}
	}

	a := make([][]float64, 0, cores+1)
	b := make([]float64, 0, cores+1)
	for i := 0; i < cores; i++ {
		row := make([]float64, n)
		for l := 0; l < levels; l++ {
			row[i*levels+l] = 1
		}
		a = append(a, row)
		b = append(b, 1)
	}
	a = append(a, pw)
	b = append(b, budget)

	return Problem{C: c, A: a, B: b}
}

// DVFSUpperBound solves the relaxation and returns the maximum fractional
// throughput for the budget.
func DVFSUpperBound(chip *mcore.Chip, budget float64) (float64, error) {
	sol, err := Solve(DVFSRelaxation(chip, budget))
	if err != nil {
		return 0, err
	}
	return sol.Value, nil
}
