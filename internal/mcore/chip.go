package mcore

import "fmt"

// Activity is the instantaneous execution behaviour a core observes from
// the program it runs: an IPC (committed instructions per cycle) and an
// effective switched capacitance (nF) that set throughput and dynamic
// power. Package workload provides phase-varying implementations.
type Activity interface {
	// Demand returns the activity seen at a simulation minute. It must
	// be pure in minute: the chip samples it once per Chip.At and reuses
	// that sample for every read until the next one, and
	// workload.Instance serves the whole minutes of the day window from
	// a table sampled once per process.
	//
	// unit: minute=min, ipc=instr, ceffNF=F
	Demand(minute float64) (ipc, ceffNF float64)
}

// ConstantActivity is a fixed-behaviour Activity, useful for tests and
// synthetic loads.
type ConstantActivity struct {
	IPC    float64 // committed instructions per cycle
	CeffNF float64 // effective switched capacitance, nF
}

// Demand returns the fixed IPC and capacitance.
//
// unit: minute=min, ipc=instr, ceffNF=F
func (a ConstantActivity) Demand(minute float64) (ipc, ceffNF float64) { return a.IPC, a.CeffNF }

// Gated marks a power-gated core (per-core power gating, Section 4.1).
const Gated = -1

// core is one core's state: its operating point, its level cap, the
// activity it runs and that activity's sample at the chip's minute.
type core struct {
	level int
	// cap bounds the reachable operating point: top (the default) is
	// unconstrained, Gated marks a failed core forced off. The
	// fault-injection layer (internal/fault) drives it.
	cap int
	act Activity
	// ipc and ceffNF are act's Demand at the chip's minute.
	ipc    float64 // unit: instr
	ceffNF float64 // unit: F
}

// Chip is the simulated multi-core processor: per-core DVFS level and
// activity, sampled at one simulation minute at a time (At). Every read
// is a pure function of the levels and that sample. It is a pure model
// — no goroutines, no wall-clock.
type Chip struct {
	cfg    Config
	cores  []core
	minute float64 // unit: min

	transitions uint64
}

// NewChip builds a chip from cfg with every core at the lowest operating
// point running a nominal activity (IPC 1, 2.5 nF), sampled at minute 0.
func NewChip(cfg Config) (*Chip, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{cfg: cfg, cores: make([]core, cfg.Cores)}
	for i := range c.cores {
		c.cores[i] = core{cap: len(cfg.Points) - 1, act: ConstantActivity{IPC: 1, CeffNF: 2.5}}
	}
	c.At(0)
	return c, nil
}

// MustNewChip is NewChip for known-good configurations; it panics on error.
func MustNewChip(cfg Config) *Chip {
	c, err := NewChip(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// At samples every core's activity at a simulation minute. Power,
// throughput and the TPR probes read that sample until the next At.
//
// unit: minute=min
func (c *Chip) At(minute float64) {
	c.minute = minute
	for i := range c.cores {
		k := &c.cores[i]
		k.ipc, k.ceffNF = k.act.Demand(minute)
	}
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// NumCores returns the core count.
func (c *Chip) NumCores() int { return c.cfg.Cores }

// NumLevels returns the number of DVFS operating points.
func (c *Chip) NumLevels() int { return len(c.cfg.Points) }

// Level returns the current operating point index of a core, or Gated.
func (c *Chip) Level(core int) int { return c.cores[core].level }

// SetLevel sets a core's operating point; Gated powers the core down.
// A request above the core's installed level cap (see SetLevelCap) is
// silently clamped to the cap — the hardware ignores programming of a
// failed or force-throttled core, it does not fault the caller.
func (c *Chip) SetLevel(core, level int) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("mcore: core %d out of range", core)
	}
	if level != Gated && (level < 0 || level >= len(c.cfg.Points)) {
		return fmt.Errorf("mcore: level %d out of range", level)
	}
	k := &c.cores[core]
	if level > k.cap {
		level = k.cap
	}
	if k.level != level {
		c.transitions++
	}
	k.level = level
	return nil
}

// LevelCap returns the core's installed operating-point cap: the top
// level when unconstrained, Gated for a failed core.
func (c *Chip) LevelCap(core int) int { return c.cores[core].cap }

// SetLevelCap bounds a core's reachable operating point: StepUp stops at
// the cap and SetLevel requests above it clamp down. cap = NumLevels()-1
// removes the constraint; cap = Gated fails the core off entirely. A
// core currently above the new cap is immediately forced down (counting
// the DVFS transition, as the hardware's emergency clamp would).
func (c *Chip) SetLevelCap(core, cap int) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("mcore: core %d out of range", core)
	}
	if cap != Gated && (cap < 0 || cap > len(c.cfg.Points)-1) {
		return fmt.Errorf("mcore: level cap %d out of range", cap)
	}
	k := &c.cores[core]
	k.cap = cap
	if k.level > cap {
		k.level = cap
		c.transitions++
	}
	return nil
}

// SetAllLevels sets every core to the same operating point.
func (c *Chip) SetAllLevels(level int) error {
	for i := 0; i < c.cfg.Cores; i++ {
		if err := c.SetLevel(i, level); err != nil {
			return err
		}
	}
	return nil
}

// SetActivity assigns the program behaviour a core executes and samples
// it at the chip's current minute.
func (c *Chip) SetActivity(core int, a Activity) error {
	if core < 0 || core >= c.cfg.Cores {
		return fmt.Errorf("mcore: core %d out of range", core)
	}
	if a == nil {
		return fmt.Errorf("mcore: nil activity for core %d", core)
	}
	k := &c.cores[core]
	k.act = a
	k.ipc, k.ceffNF = a.Demand(c.minute)
	return nil
}

// Activity returns the program behaviour a core executes.
func (c *Chip) Activity(core int) Activity { return c.cores[core].act }

// StepUp raises a core one operating point (ungating it to the lowest point
// first) and reports whether anything changed. A core at its level cap —
// including a failed core capped at Gated — refuses to move.
func (c *Chip) StepUp(core int) bool {
	k := &c.cores[core]
	if k.level >= k.cap {
		return false
	}
	k.level++ // Gated+1 is the lowest point
	c.transitions++
	return true
}

// StepDown lowers a core one operating point, gating it below the lowest
// point, and reports whether anything changed.
func (c *Chip) StepDown(core int) bool {
	k := &c.cores[core]
	if k.level == Gated {
		return false
	}
	k.level-- // 0−1 is Gated
	c.transitions++
	return true
}

// PowerAt returns the power (W) a core would draw at operating point lvl
// under its current sample: Ceff·V²·f dynamic power plus
// voltage-proportional leakage and the active floor; zero when Gated.
//
// unit: return=W
func (c *Chip) PowerAt(core, lvl int) float64 {
	if lvl == Gated {
		return 0
	}
	p := c.cfg.Points[lvl]
	base := c.cores[core].ceffNF*p.VoltV*p.VoltV*p.FreqGHz + c.cfg.LeakWPerV*p.VoltV + c.cfg.ActiveWatts
	return base * c.cfg.classOf(core).Power
}

// ThroughputAt returns the throughput in GIPS (billion instructions per
// second) a core would deliver at operating point lvl under its current
// sample: IPC·f, zero when Gated.
//
// unit: return=GIPS
func (c *Chip) ThroughputAt(core, lvl int) float64 {
	if lvl == Gated {
		return 0
	}
	return c.cores[core].ipc * c.cfg.Points[lvl].FreqGHz * c.cfg.classOf(core).Perf
}

// CorePower returns one core's instantaneous power draw (W) at its
// current level.
//
// unit: return=W
func (c *Chip) CorePower(core int) float64 { return c.PowerAt(core, c.cores[core].level) }

// Power returns the chip's total instantaneous power draw (W).
//
// unit: return=W
func (c *Chip) Power() float64 {
	sum := 0.0
	for i := range c.cores {
		sum += c.CorePower(i)
	}
	return sum
}

// CoreThroughput returns one core's instantaneous throughput in GIPS at
// its current level.
//
// unit: return=GIPS
func (c *Chip) CoreThroughput(core int) float64 {
	return c.ThroughputAt(core, c.cores[core].level)
}

// Throughput returns the chip's total instantaneous throughput in GIPS.
//
// unit: return=GIPS
func (c *Chip) Throughput() float64 {
	sum := 0.0
	for i := range c.cores {
		sum += c.CoreThroughput(i)
	}
	return sum
}

// MinPower returns the chip power with every core gated except one at the
// lowest operating point — the smallest load the chip can present while
// still making progress. It depends on neither levels nor caps.
//
// unit: return=W
func (c *Chip) MinPower() float64 {
	min := 0.0
	for i := range c.cores {
		if p := c.PowerAt(i, 0); i == 0 || p < min {
			min = p
		}
	}
	return min
}

// DeltaUp returns the throughput and power increases of raising a core one
// operating point. ok is false when the core is already at the top.
//
// unit: dT=GIPS, dP=W
func (c *Chip) DeltaUp(core int) (dT, dP float64, ok bool) {
	lvl := c.cores[core].level
	if lvl == len(c.cfg.Points)-1 {
		return 0, 0, false
	}
	dT = c.ThroughputAt(core, lvl+1) - c.ThroughputAt(core, lvl)
	dP = c.PowerAt(core, lvl+1) - c.PowerAt(core, lvl)
	return dT, dP, true
}

// DeltaDown returns the throughput and power decreases (as positive
// numbers) of lowering a core one operating point. ok is false when the
// core is already gated.
//
// unit: dT=GIPS, dP=W
func (c *Chip) DeltaDown(core int) (dT, dP float64, ok bool) {
	lvl := c.cores[core].level
	if lvl == Gated {
		return 0, 0, false
	}
	dT = c.ThroughputAt(core, lvl) - c.ThroughputAt(core, lvl-1)
	dP = c.PowerAt(core, lvl) - c.PowerAt(core, lvl-1)
	return dT, dP, true
}

// TPRUp returns the throughput-power ratio ΔT/ΔP of raising a core one
// level (Section 4.3) — the marginal performance return of giving this core
// more power. Returns 0 when the core cannot be raised.
//
// unit: return=GIPS/W
func (c *Chip) TPRUp(core int) float64 {
	dT, dP, ok := c.DeltaUp(core)
	if !ok || dP <= 0 {
		return 0
	}
	return dT / dP
}

// TPRDown returns the throughput-power ratio ΔT/ΔP of lowering a core one
// level — the performance cost per watt reclaimed. Returns +Inf-free 0 when
// the core is gated already.
//
// unit: return=GIPS/W
func (c *Chip) TPRDown(core int) float64 {
	dT, dP, ok := c.DeltaDown(core)
	if !ok || dP <= 0 {
		return 0
	}
	return dT / dP
}

// Transitions returns the cumulative count of per-core operating-point
// changes — each one costs a VRM voltage ramp and a PLL relock, so power
// managers that thrash levels pay for it (see sim.Config.DVFSTransitionUs).
// The probes (DeltaUp, DeltaDown, PowerAt, ...) never write a level.
func (c *Chip) Transitions() uint64 { return c.transitions }

// Levels returns a copy of the per-core operating point indices.
func (c *Chip) Levels() []int {
	out := make([]int, len(c.cores))
	for i, k := range c.cores {
		out[i] = k.level
	}
	return out
}
