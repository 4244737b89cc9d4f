package dc

import (
	"solarcore/internal/fault"
)

// clusterFaults is one cluster day's fault state: the schedule runtime,
// whether node chips currently carry fault level caps, and the number of
// fault windows opened so far.
type clusterFaults struct {
	rt      *fault.Runtime
	capped  bool
	windows int
}

// applyAt counts window openings and pushes core-fault level caps onto
// every node chip (lifting them once the window closes).
//
// unit: t=min
func (cf *clusterFaults) applyAt(t float64, c *Cluster) {
	_, opened := cf.rt.Edges(t)
	cf.windows += len(opened)
	was := cf.capped
	for _, n := range c.Nodes {
		cf.capped = cf.rt.CapCores(t, n.Chip, was)
	}
}

// budgetScale composes the active power-path fault factors at minute t:
// irradiance scale (cloud), generator current scale (string cut) and
// converter efficiency scale (derate). 1 when no power-path fault is
// active.
//
// unit: t=min, return=ratio
func (cf *clusterFaults) budgetScale(t float64) float64 {
	if !cf.rt.PowerPathActive(t) {
		return 1
	}
	_, eff := cf.rt.Converter(t)
	return cf.rt.IrradianceScale(t) * cf.rt.GeneratorScale(t) * eff
}
