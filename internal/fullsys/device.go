// Package fullsys generalizes SolarCore's load adaptation beyond the
// processor — the paper's stated future work ("full-system based solar
// power management ... memory, disk and network interface", Section 8) and
// its Section 4.3 remark that the power tracking technique "can be combined
// with dynamic disk speed control" (DRPM, reference [17]).
//
// Every component exposes the same contract: discrete power states trading
// power for service capability. A global throughput-power-ratio allocator
// then fills the solar budget across heterogeneous devices exactly the way
// the per-core table of Figure 10 fills it across cores.
package fullsys

import (
	"fmt"
	"math"

	"solarcore/internal/mcore"
)

// Device is a component with ordered power states (0 = off/lowest) that
// trades power for service. At samples the device's workload at a
// simulation minute; PowerAt and UtilityAt read that sample and write no
// state. Utility is the device's performance contribution in a state, in
// system-comparable units (the caller chooses weights).
type Device interface {
	Name() string
	NumStates() int
	State() int
	SetState(s int) error
	At(minute float64)
	PowerAt(s int) float64
	UtilityAt(s int) float64
}

// demand is a device's service demand sampled once per instant: Demand
// at the minute of the last At, unlimited when Demand is nil. A device
// serves nothing before its first At.
type demand struct {
	Demand func(minute float64) float64 // demanded service rate
	now    float64
}

// At samples the demand at a simulation minute.
//
// unit: minute=min
func (d *demand) At(minute float64) {
	d.now = math.Inf(1)
	if d.Demand != nil {
		d.now = d.Demand(minute)
	}
}

// clampState validates a state index.
func clampState(dev string, s, n int) error {
	if s < 0 || s >= n {
		return fmt.Errorf("fullsys: %s state %d out of range [0,%d)", dev, s, n)
	}
	return nil
}

// CoreDevice adapts one core of an mcore.Chip to the Device interface:
// state 0 is power-gated, state l is operating point l−1. Weight converts
// GIPS into system utility units.
type CoreDevice struct {
	Chip   *mcore.Chip
	Core   int
	Weight float64
}

// Name identifies the core.
func (c *CoreDevice) Name() string { return fmt.Sprintf("core%d", c.Core) }

// NumStates is gated + every DVFS point.
func (c *CoreDevice) NumStates() int { return c.Chip.NumLevels() + 1 }

// State maps the chip level to the device state.
func (c *CoreDevice) State() int { return c.Chip.Level(c.Core) + 1 }

// SetState maps the device state back to a chip level.
func (c *CoreDevice) SetState(s int) error {
	if err := clampState(c.Name(), s, c.NumStates()); err != nil {
		return err
	}
	return c.Chip.SetLevel(c.Core, s-1)
}

// At samples the chip at a simulation minute (mcore.Chip.At).
//
// unit: minute=min
func (c *CoreDevice) At(minute float64) { c.Chip.At(minute) }

// PowerAt returns the core's draw in state s.
func (c *CoreDevice) PowerAt(s int) float64 { return c.Chip.PowerAt(c.Core, s-1) }

// UtilityAt returns the core's weighted GIPS in state s.
func (c *CoreDevice) UtilityAt(s int) float64 { return c.Weight * c.Chip.ThroughputAt(c.Core, s-1) }

// Disk is a DRPM multi-speed disk (Gurumurthi et al., the paper's [17]):
// state 0 is spun down; higher states are RPM steps. Spindle power grows
// ≈ RPM^2.8; served bandwidth is the smaller of the platter rate (∝ RPM)
// and the workload's demanded IO rate (Demand, in MB/s).
type Disk struct {
	RPMs     []float64 // e.g. 0, 5400, 7200, 10000, 12000, 15000
	IdleW    float64   // electronics floor while spinning
	SpinCoef float64   // W at the highest RPM (spindle share)
	MBperRPM float64   // bandwidth per RPM (MB/s per 1000 RPM)
	Weight   float64   // utility per served MB/s
	demand

	state int
}

// NewDisk returns a 5-speed DRPM disk modeled on the paper's server-class
// reference: 4-15 W across 5400-15000 RPM, ~60 MB/s at full speed.
func NewDisk(weight float64, fn func(float64) float64) *Disk {
	return &Disk{
		RPMs:     []float64{0, 5400, 7200, 10000, 12000, 15000},
		IdleW:    2.5,
		SpinCoef: 11.5,
		MBperRPM: 4.0, // MB/s per 1000 RPM
		Weight:   weight,
		demand:   demand{Demand: fn},
	}
}

// Name identifies the disk.
func (d *Disk) Name() string { return "disk" }

// NumStates returns the RPM step count.
func (d *Disk) NumStates() int { return len(d.RPMs) }

// State returns the current RPM step.
func (d *Disk) State() int { return d.state }

// SetState selects an RPM step.
func (d *Disk) SetState(s int) error {
	if err := clampState(d.Name(), s, d.NumStates()); err != nil {
		return err
	}
	d.state = s
	return nil
}

// PowerAt returns the spindle + electronics draw in state s.
func (d *Disk) PowerAt(s int) float64 {
	rpm := d.RPMs[s]
	if rpm <= 0 {
		return 0
	}
	top := d.RPMs[len(d.RPMs)-1]
	return d.IdleW + d.SpinCoef*math.Pow(rpm/top, 2.8)
}

// UtilityAt returns weighted served bandwidth in state s: capability
// capped by demand.
func (d *Disk) UtilityAt(s int) float64 {
	rpm := d.RPMs[s]
	if rpm <= 0 {
		return 0
	}
	return d.Weight * math.Min(d.MBperRPM*rpm/1000, d.now)
}

// Memory is a DRAM subsystem with power-down, self-refresh and active
// states; bandwidth scales with how many ranks stay active, served up to
// the demanded rate (Demand, in GB/s).
type Memory struct {
	// States: 0 self-refresh (no service), 1..N = that many active ranks.
	Ranks    int
	WPerRank float64 // active power per rank
	BaseW    float64 // controller + refresh floor when any rank is active
	GBps     float64 // bandwidth per rank
	Weight   float64
	demand

	state int
}

// NewMemory returns a 4-rank DDR-class subsystem.
func NewMemory(weight float64, fn func(float64) float64) *Memory {
	return &Memory{Ranks: 4, WPerRank: 2.2, BaseW: 1.5, GBps: 3.2, Weight: weight, demand: demand{Demand: fn}}
}

// Name identifies the memory.
func (m *Memory) Name() string { return "memory" }

// NumStates is self-refresh plus each active-rank count.
func (m *Memory) NumStates() int { return m.Ranks + 1 }

// State returns the active-rank count (0 = self-refresh).
func (m *Memory) State() int { return m.state }

// SetState selects the active-rank count.
func (m *Memory) SetState(s int) error {
	if err := clampState(m.Name(), s, m.NumStates()); err != nil {
		return err
	}
	m.state = s
	return nil
}

// PowerAt returns the DRAM draw in state s.
func (m *Memory) PowerAt(s int) float64 {
	if s == 0 {
		return 0.3 // self-refresh
	}
	return m.BaseW + float64(s)*m.WPerRank
}

// UtilityAt returns weighted served bandwidth in state s.
func (m *Memory) UtilityAt(s int) float64 {
	if s == 0 {
		return 0
	}
	return m.Weight * math.Min(float64(s)*m.GBps, m.now)
}

// NIC is a network interface with link-speed states (down, 100M, 1G,
// 10G) serving up to the demanded traffic (Demand, in Gb/s).
type NIC struct {
	SpeedsGbps []float64
	WPerState  []float64
	Weight     float64
	demand

	state int
}

// NewNIC returns a three-speed server NIC.
func NewNIC(weight float64, fn func(float64) float64) *NIC {
	return &NIC{
		SpeedsGbps: []float64{0, 0.1, 1, 10},
		WPerState:  []float64{0, 1.0, 2.2, 6.5},
		Weight:     weight,
		demand:     demand{Demand: fn},
	}
}

// Name identifies the NIC.
func (n *NIC) Name() string { return "nic" }

// NumStates returns the link-speed count.
func (n *NIC) NumStates() int { return len(n.SpeedsGbps) }

// State returns the current link-speed index.
func (n *NIC) State() int { return n.state }

// SetState selects a link speed.
func (n *NIC) SetState(s int) error {
	if err := clampState(n.Name(), s, n.NumStates()); err != nil {
		return err
	}
	n.state = s
	return nil
}

// PowerAt returns the PHY + MAC draw in state s.
func (n *NIC) PowerAt(s int) float64 { return n.WPerState[s] }

// UtilityAt returns weighted served traffic in state s.
func (n *NIC) UtilityAt(s int) float64 {
	capability := n.SpeedsGbps[s]
	if capability <= 0 {
		return 0
	}
	return n.Weight * math.Min(capability, n.now)
}
