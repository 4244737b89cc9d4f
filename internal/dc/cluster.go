// Package dc scales SolarCore from one processor to a solar-powered
// cluster — the datacenter setting the paper's introduction motivates
// (solar-augmented facilities at Google/Microsoft/Yahoo) and the regime
// the related work (Stewart & Shen's "some joules are more precious")
// studies. A Cluster shares one PV array across server nodes; the
// throughput-power-ratio principle applies hierarchically:
//
//   - within a node, marginal watts go to the best core (package sched);
//   - across nodes, marginal watts go to the node whose best core offers
//     the highest return — and because an active node pays a fixed PSU/fan
//     overhead, low budgets naturally consolidate work onto few nodes and
//     park the rest, with no explicit consolidation policy.
//
// Per-node power caps (rack branch-circuit limits) constrain allocation.
package dc

import (
	"fmt"
	"math"

	"solarcore/internal/fault"
	"solarcore/internal/mcore"
	"solarcore/internal/sim"
	"solarcore/internal/workload"
)

// Config sizes a cluster.
type Config struct {
	// Nodes is the server count.
	Nodes int
	// Chip configures every node's processor (DefaultConfig when zero).
	Chip mcore.Config
	// Mixes assigns one Table 5 workload per node (round-robin reuse when
	// shorter than Nodes).
	Mixes []workload.Mix
	// NodeOverheadW is the fixed PSU/fan/board power of an active node —
	// the consolidation incentive. Zero disables it.
	//
	// unit: W
	NodeOverheadW float64
	// NodeCapW is a per-node power cap including overhead (rack branch
	// limit). Zero means uncapped.
	//
	// unit: W
	NodeCapW float64
}

func (c *Config) fillDefaults() error {
	if c.Nodes < 1 {
		return fmt.Errorf("dc: cluster needs at least one node")
	}
	if c.Chip.Cores == 0 {
		c.Chip = mcore.DefaultConfig()
	}
	if len(c.Mixes) == 0 {
		return fmt.Errorf("dc: cluster needs at least one workload mix")
	}
	if c.NodeOverheadW < 0 || c.NodeCapW < 0 {
		return fmt.Errorf("dc: negative node overhead or cap")
	}
	return nil
}

// Node is one server of the cluster.
type Node struct {
	Name string
	Chip *mcore.Chip

	overheadW float64 // unit: W
	capW      float64 // unit: W
}

// Active reports whether any core is ungated.
func (n *Node) Active() bool {
	for i := 0; i < n.Chip.NumCores(); i++ {
		if n.Chip.Level(i) != mcore.Gated {
			return true
		}
	}
	return false
}

// Power returns the node draw including overhead when active.
//
// unit: return=W
func (n *Node) Power() float64 {
	p := n.Chip.Power()
	if p > 0 {
		p += n.overheadW
	}
	return p
}

// Throughput returns the node throughput in GIPS.
//
// unit: return=GIPS
func (n *Node) Throughput() float64 { return n.Chip.Throughput() }

// Cluster is a set of nodes sharing one solar budget.
type Cluster struct {
	Nodes []*Node
}

// New builds a cluster: every node gets a fresh chip (all cores gated)
// running its assigned mix.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Cluster{}
	for i := 0; i < cfg.Nodes; i++ {
		chip, err := mcore.NewChip(cfg.Chip)
		if err != nil {
			return nil, err
		}
		mix := cfg.Mixes[i%len(cfg.Mixes)]
		if err := mix.Apply(chip); err != nil {
			return nil, fmt.Errorf("dc: node %d: %w", i, err)
		}
		_ = chip.SetAllLevels(mcore.Gated) // fresh chip: Gated is always a valid level
		c.Nodes = append(c.Nodes, &Node{
			Name:      fmt.Sprintf("node%02d", i),
			Chip:      chip,
			overheadW: cfg.NodeOverheadW,
			capW:      cfg.NodeCapW,
		})
	}
	return c, nil
}

// At samples every node chip's workload at a simulation minute (see
// mcore.Chip.At); the reads and moves below use that sample.
//
// unit: minute=min
func (c *Cluster) At(minute float64) {
	for _, n := range c.Nodes {
		n.Chip.At(minute)
	}
}

// Power returns the total cluster draw.
//
// unit: return=W
func (c *Cluster) Power() float64 {
	sum := 0.0
	for _, n := range c.Nodes {
		sum += n.Power()
	}
	return sum
}

// Throughput returns the total cluster throughput in GIPS.
//
// unit: return=GIPS
func (c *Cluster) Throughput() float64 {
	sum := 0.0
	for _, n := range c.Nodes {
		sum += n.Throughput()
	}
	return sum
}

// ActiveNodes counts nodes with at least one running core.
func (c *Cluster) ActiveNodes() int {
	count := 0
	for _, n := range c.Nodes {
		if n.Active() {
			count++
		}
	}
	return count
}

// bestRaise finds the cluster-wide best core raise: (node, core, ΔT/ΔP,
// ΔP) honoring node caps and charging activation overhead to the first
// core of a parked node.
//
// unit: dP=W
func (c *Cluster) bestRaise() (ni, core int, dP float64, ok bool) {
	bestTPR := 0.0
	ni = -1
	for i, n := range c.Nodes {
		activation := 0.0
		if !n.Active() {
			activation = n.overheadW
		}
		nodePower := n.Power()
		for ci := 0; ci < n.Chip.NumCores(); ci++ {
			dT, dp, can := n.Chip.DeltaUp(ci)
			if !can || dp <= 0 {
				continue
			}
			dp += activation
			if n.capW > 0 && nodePower+dp > n.capW {
				continue
			}
			if tpr := dT / dp; tpr > bestTPR {
				ni, core, dP, bestTPR = i, ci, dp, tpr
			}
		}
	}
	return ni, core, dP, ni >= 0
}

// Lower reclaims one DVFS step from the cluster-wide worst core, crediting
// the node overhead when the step parks the node.
func (c *Cluster) Lower() bool {
	bestCost := math.Inf(1)
	ni, core := -1, -1
	for i, n := range c.Nodes {
		lastCore := n.Active() && ungatedCores(n.Chip) == 1
		for ci := 0; ci < n.Chip.NumCores(); ci++ {
			dT, dp, can := n.Chip.DeltaDown(ci)
			if !can {
				continue
			}
			if lastCore && n.Chip.Level(ci) == 0 {
				dp += n.overheadW // parking the node reclaims its overhead
			}
			if dp <= 0 {
				continue
			}
			if cost := dT / dp; cost < bestCost {
				ni, core, bestCost = i, ci, cost
			}
		}
	}
	if ni < 0 {
		return false
	}
	return c.Nodes[ni].Chip.StepDown(core)
}

func ungatedCores(chip *mcore.Chip) int {
	count := 0
	for i := 0; i < chip.NumCores(); i++ {
		if chip.Level(i) != mcore.Gated {
			count++
		}
	}
	return count
}

// FillBudget adapts the cluster to sit as close under the budget as the
// step granularity allows and returns the resulting power.
//
// unit: budget=W, return=W
func (c *Cluster) FillBudget(budget float64) float64 {
	guard := 0
	for c.Power() > budget && guard < 1<<14 {
		if !c.Lower() {
			break
		}
		guard++
	}
	for guard < 1<<14 {
		ni, core, dP, ok := c.bestRaise()
		if !ok || c.Power()+dP > budget {
			break
		}
		c.Nodes[ni].Chip.StepUp(core)
		guard++
	}
	return c.Power()
}

// DayResult summarizes a cluster day.
type DayResult struct {
	SolarWh     float64 // unit: Wh
	UtilityWh   float64 // unit: Wh
	GInstrSolar float64 // unit: Ginstr
	SolarMin    float64 // unit: min
	DaytimeMin  float64 // unit: min
	MPPEnergyWh float64 // unit: Wh
	// MeanActiveNodes is the time-average of the active node count while
	// solar-powered.
	MeanActiveNodes float64
	// FaultWindows counts fault windows opened over the day (zero except
	// under an armed fault schedule).
	FaultWindows int
	// PerNode breaks energy and work down by server.
	PerNode []NodeDayResult
}

// NodeDayResult is one server's share of a cluster day.
type NodeDayResult struct {
	Name        string
	SolarWh     float64 // unit: Wh
	GInstrSolar float64 // unit: Ginstr
	ActiveMin   float64 // unit: min
}

// Utilization returns solar energy used over the theoretical maximum.
//
// unit: ratio
func (r *DayResult) Utilization() float64 {
	if r.MPPEnergyWh <= 0 {
		return 0
	}
	return r.SolarWh / r.MPPEnergyWh
}

// RunDay drives the cluster through a solar day with 10-minute budget
// refills and per-minute shedding, mirroring the single-node engine,
// under the fault schedule s (DESIGN.md §11). Power-path faults — cloud
// bursts, string disconnects, converter derates — scale the shared
// array's deliverable budget (the cluster's budget model is linear in
// the MPP, so the fault factors compose multiplicatively), and core
// faults cap every node chip through the mcore level-cap mechanism.
// Sensor and solver faults have no cluster analogue and are ignored. A
// nil or disarmed schedule scales every budget by exactly 1 and caps
// nothing, so the day is byte-identical to a clean one.
//
// unit: stepMin=min
func RunDay(day *sim.SolarDay, c *Cluster, stepMin float64, s *fault.Schedule) DayResult {
	rt := s.Runtime() // nil when s is disarmed; every query accepts nil
	capped := false   // node chips carry fault level caps
	if stepMin <= 0 {
		stepMin = 1
	}
	const trackPeriod = 10.0
	const eta = 0.96
	res := DayResult{DaytimeMin: day.DaytimeMinutes(), MPPEnergyWh: day.MPPEnergyWh()}
	res.PerNode = make([]NodeDayResult, len(c.Nodes))
	for i, n := range c.Nodes {
		res.PerNode[i].Name = n.Name
	}
	// at moves the cluster and the fault schedule to minute t: it samples
	// every node chip, counts the windows opened, caps the node chips
	// under core faults (lifting the caps once the window closes) and
	// returns the budget scale of the power-path faults, whose factors
	// compose multiplicatively because the budget is linear in the MPP.
	at := func(t float64) float64 {
		c.At(t)
		rt.At(t)
		_, opened := rt.Edges()
		res.FaultWindows += len(opened)
		was := capped
		for _, n := range c.Nodes {
			capped = rt.CapCores(n.Chip, was)
		}
		_, eff := rt.Converter()
		return rt.IrradianceScale() * rt.GeneratorScale() * eff
	}
	var activeSum float64
	var activeN int
	start, end := day.StartMinute(), day.EndMinute()
	for t0 := start; t0 < end; t0 += trackPeriod {
		t1 := math.Min(t0+trackPeriod, end)
		c.FillBudget(eta * day.MPPAt(t0) * 0.95 * at(t0))
		for t := t0; t < t1-1e-9; t += stepMin {
			dt := math.Min(stepMin, t1-t)
			budget := eta * day.MPPAt(t) * at(t)
			p := c.Power()
			for p > budget {
				if !c.Lower() {
					break
				}
				p = c.Power()
			}
			if p > 0 && p <= budget {
				res.SolarWh += p * dt / 60
				res.SolarMin += dt
				res.GInstrSolar += c.Throughput() * dt * 60
				for i, n := range c.Nodes {
					res.PerNode[i].SolarWh += n.Power() * dt / 60
					res.PerNode[i].GInstrSolar += n.Throughput() * dt * 60
					if n.Active() {
						res.PerNode[i].ActiveMin += dt
					}
				}
				activeSum += float64(c.ActiveNodes())
				activeN++
			} else {
				res.UtilityWh += p * dt / 60
			}
		}
	}
	if activeN > 0 {
		res.MeanActiveNodes = activeSum / float64(activeN)
	}
	// Don't leave mid-window caps on a reused cluster: a nil runtime
	// constrains nothing, so CapCores on it lifts them.
	for _, n := range c.Nodes {
		(*fault.Runtime)(nil).CapCores(n.Chip, capped)
	}
	return res
}

// FillBudgetFairShare is the naive cluster baseline: every node receives an
// equal slice of the budget and fills it independently with its own TPR
// table. It ignores cross-node differences and pays every node's overhead,
// which is exactly what the global allocator avoids — keep it for
// comparisons.
//
// unit: budget=W, return=W
func (c *Cluster) FillBudgetFairShare(budget float64) float64 {
	share := budget / float64(len(c.Nodes))
	for _, n := range c.Nodes {
		// Shed anything over the share first.
		for n.Power() > share {
			lowered := false
			worst, worstTPR := -1, math.Inf(1)
			for ci := 0; ci < n.Chip.NumCores(); ci++ {
				dT, dp, ok := n.Chip.DeltaDown(ci)
				if !ok || dp <= 0 {
					continue
				}
				if cost := dT / dp; cost < worstTPR {
					worst, worstTPR = ci, cost
				}
			}
			if worst >= 0 {
				lowered = n.Chip.StepDown(worst)
			}
			if !lowered {
				break
			}
		}
		// Fill up to the share.
		for {
			activation := 0.0
			if !n.Active() {
				activation = n.overheadW
			}
			best, bestTPR := -1, 0.0
			for ci := 0; ci < n.Chip.NumCores(); ci++ {
				dT, dp, ok := n.Chip.DeltaUp(ci)
				if !ok || dp <= 0 {
					continue
				}
				dp += activation
				if n.Power()+dp > share {
					continue
				}
				if n.capW > 0 && n.Power()+dp > n.capW {
					continue
				}
				if tpr := dT / dp; tpr > bestTPR {
					best, bestTPR = ci, tpr
				}
			}
			if best < 0 {
				break
			}
			n.Chip.StepUp(best)
		}
	}
	return c.Power()
}
