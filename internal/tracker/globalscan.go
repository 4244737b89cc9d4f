package tracker

import (
	"solarcore/internal/power"
	"solarcore/internal/pv"
)

// GlobalScan is the partial-shading-aware tracker: periodically it sweeps
// the converter's whole ratio range, jumps to the best-producing ratio, and
// hill-climbs locally in between. Single-hill trackers (P&O, IncCond) lock
// onto whichever local maximum of a multi-peak P-V curve they start near;
// the scan escapes them at the cost of a brief excursion.
type GlobalScan struct {
	// RescanPeriod is the number of Step calls between full sweeps
	// (default 60).
	RescanPeriod int
	// ScanPoints is the number of ratios probed per sweep (default 24).
	ScanPoints int

	steps int
	local PerturbObserve
}

// Name identifies the algorithm.
func (*GlobalScan) Name() string { return "GlobalScan" }

// Reset clears the scan schedule and the local climber.
func (g *GlobalScan) Reset() {
	g.steps = 0
	g.local.Reset()
}

// Step either performs the periodic global sweep or one local P&O move.
func (g *GlobalScan) Step(c *power.Circuit, cv *pv.Curve, rLoad float64) {
	period := g.RescanPeriod
	if period <= 0 {
		period = 60
	}
	points := g.ScanPoints
	if points <= 1 {
		points = 24
	}
	if g.steps%period == 0 {
		g.sweep(c, cv, rLoad, points)
		g.local.Reset()
	} else {
		g.local.Step(c, cv, rLoad)
	}
	g.steps++
}

// sweep probes the full ratio range and parks the converter at the best
// ratio found.
func (g *GlobalScan) sweep(c *power.Circuit, cv *pv.Curve, rLoad float64, points int) {
	bestK, bestP := c.Conv.K, -1.0
	for i := 0; i < points; i++ {
		k := c.Conv.KMin + (c.Conv.KMax-c.Conv.KMin)*float64(i)/float64(points-1)
		c.Conv.SetRatio(k)
		if p := c.Operate(cv, rLoad).PLoad; p > bestP {
			bestK, bestP = k, p
		}
	}
	c.Conv.SetRatio(bestK)
}
