// Package workload models the multi-programmed SPEC2000 workloads of the
// paper's evaluation (Section 5, Table 5). Each benchmark is characterized
// the way the paper's analytic optimizer sees it — an IPC and an effective
// switched capacitance — plus deterministic phase behaviour so that power
// and throughput vary over a run the way representative-interval traces do.
// High-EPI programs swing hard (the source of the H1 tracking ripples in
// Figures 13-14); low-EPI programs are smooth.
package workload

import (
	"fmt"
	"math"

	"solarcore/internal/atmos"
	"solarcore/internal/lru"
	"solarcore/internal/mcore"
)

// Class is the paper's energy-per-instruction category (Table 5):
// high ≥ 15 nJ, moderate 8–15 nJ, low ≤ 8 nJ.
type Class int

// EPI classes.
const (
	HighEPI Class = iota
	ModerateEPI
	LowEPI
)

// String names the class.
func (c Class) String() string {
	switch c {
	case HighEPI:
		return "High"
	case ModerateEPI:
		return "Moderate"
	case LowEPI:
		return "Low"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Benchmark is one SPEC2000 program's execution model.
type Benchmark struct {
	Name  string
	Class Class

	BaseIPC    float64 // mean committed IPC (frequency-independent, Section 4.3)
	BaseCeffNF float64 // mean effective switched capacitance, nF

	// PhaseAmp is the relative amplitude of program-phase swings applied to
	// IPC and capacitance; PhasePeriodMin is the dominant phase period.
	PhaseAmp       float64
	PhasePeriodMin float64
}

// All lists the twelve benchmarks used by Table 5, grouped by class.
var All = []Benchmark{
	// High EPI: lower-IPC, high-activity programs (15-17 nJ/instr at the
	// top operating point of the default chip).
	{Name: "art", Class: HighEPI, BaseIPC: 0.72, BaseCeffNF: 4.0, PhaseAmp: 0.40, PhasePeriodMin: 14},
	{Name: "apsi", Class: HighEPI, BaseIPC: 0.76, BaseCeffNF: 4.2, PhaseAmp: 0.30, PhasePeriodMin: 19},
	{Name: "bzip", Class: HighEPI, BaseIPC: 0.80, BaseCeffNF: 4.3, PhaseAmp: 0.25, PhasePeriodMin: 11},
	{Name: "gzip", Class: HighEPI, BaseIPC: 0.83, BaseCeffNF: 4.4, PhaseAmp: 0.22, PhasePeriodMin: 8},

	// Moderate EPI (10.5-11.5 nJ/instr).
	{Name: "gcc", Class: ModerateEPI, BaseIPC: 0.98, BaseCeffNF: 3.4, PhaseAmp: 0.28, PhasePeriodMin: 16},
	{Name: "mcf", Class: ModerateEPI, BaseIPC: 0.92, BaseCeffNF: 3.1, PhaseAmp: 0.35, PhasePeriodMin: 23},
	{Name: "gap", Class: ModerateEPI, BaseIPC: 1.02, BaseCeffNF: 3.7, PhaseAmp: 0.20, PhasePeriodMin: 13},
	{Name: "vpr", Class: ModerateEPI, BaseIPC: 1.00, BaseCeffNF: 3.5, PhaseAmp: 0.18, PhasePeriodMin: 10},

	// Low EPI: higher-IPC, smooth programs (6.5-7 nJ/instr).
	{Name: "mesa", Class: LowEPI, BaseIPC: 1.28, BaseCeffNF: 2.3, PhaseAmp: 0.08, PhasePeriodMin: 17},
	{Name: "equake", Class: LowEPI, BaseIPC: 1.22, BaseCeffNF: 2.4, PhaseAmp: 0.12, PhasePeriodMin: 21},
	{Name: "lucas", Class: LowEPI, BaseIPC: 1.25, BaseCeffNF: 2.2, PhaseAmp: 0.10, PhasePeriodMin: 9},
	{Name: "swim", Class: LowEPI, BaseIPC: 1.18, BaseCeffNF: 2.1, PhaseAmp: 0.15, PhasePeriodMin: 26},
}

// ByName returns the benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range All {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// EPI returns the benchmark's average energy per instruction (nJ) at the
// chip's top operating point — the quantity Table 5 classifies by.
// EPI = P / (IPC·f) with P in watts and IPC·f in GIPS.
func (b Benchmark) EPI(cfg mcore.Config) float64 {
	top := cfg.Points[len(cfg.Points)-1]
	p := b.BaseCeffNF*top.VoltV*top.VoltV*top.FreqGHz + cfg.LeakWPerV*top.VoltV + cfg.ActiveWatts
	return p / (b.BaseIPC * top.FreqGHz)
}

// Instance is a benchmark running on one core, de-phased from other copies
// of the same program by a per-core offset. It implements mcore.Activity.
type Instance struct {
	Bench     Benchmark
	OffsetMin float64

	// tab is the instance's Demand at every whole minute of the day
	// window, shared and immutable; nil on literals built without
	// NewInstance, which always evaluate the phase model.
	tab *demandTable
}

var _ mcore.Activity = Instance{}

// demandTable holds an instance's (IPC, Ceff) phase trace at the whole
// minutes atmos.DayStartMinute+i of the generated day window, the
// minutes every run samples.
type demandTable [atmos.DayMinutes + 1][2]float64

// tableKey names a demand table: the phase model and its offset fix
// every sample.
type tableKey struct {
	bench     Benchmark
	offsetMin float64
}

// tableCacheCap bounds the process-wide demand tables (about 9.4 KB
// each). Table 5's ten mixes use 54 distinct (benchmark, core slot)
// pairs, and 12 benchmarks × 8 slots is 96, so every pair the paper's
// mixes and the synthetic ones can name stays resident.
const tableCacheCap = 96

// tables memoizes one demand table per (benchmark, offset) for the
// process: every run of every mix reads the same trace.
var tables = lru.New[tableKey, *demandTable](tableCacheCap)

// NewInstance places a benchmark on a core with a deterministic phase
// offset derived from the core index, so homogeneous mixes still expose
// per-core diversity at any instant (and the TPR table has something to
// sort). The instance reads its day-window samples from the process-wide
// table of (b, offset), built once.
func NewInstance(b Benchmark, core int) Instance {
	off := b.PhasePeriodMin * 0.37 * float64(core)
	tab, _, _ := tables.Do(tableKey{b, off}, nil, func() (*demandTable, error) {
		model, tab := Instance{Bench: b, OffsetMin: off}, new(demandTable)
		for i := range tab {
			tab[i][0], tab[i][1] = model.demand(float64(atmos.DayStartMinute + i))
		}
		return tab, nil
	})
	return Instance{Bench: b, OffsetMin: off, tab: tab}
}

// The sines and cosines of Demand's constant phase shifts (0.7, 1.9 and
// 2.1 rad), so a shifted sinusoid is a rotation: sin(x+φ) = sin x·cos φ +
// cos x·sin φ.
const (
	sin07, cos07 = 0.644217687237691, 0.7648421872844885
	sin19, cos19 = 0.9463000876874145, -0.32328956686350335
	sin21, cos21 = 0.8632093666488737, -0.5048461045998576
)

// Demand returns the instantaneous IPC and effective capacitance at the
// given simulation minute: the base values modulated by two incommensurate
// sinusoids scaled by the benchmark's phase amplitude,
//
//	swingI = A·(0.6·sin(w1·t) + 0.4·sin(w2·t + 2.1))
//	swingC = A·(0.7·sin(w1·t + 0.7) + 0.3·sin(w2·t + 1.9))
//
// with one math.Sincos per angle and the phase shifts as rotations. A
// minute that is bit for bit a whole minute of the day window reads the
// instance's table, which holds exactly that formula's value there.
func (in Instance) Demand(minute float64) (ipc, ceffNF float64) {
	if in.tab != nil {
		i := int(minute) - atmos.DayStartMinute
		if uint(i) < uint(len(in.tab)) &&
			math.Float64bits(float64(atmos.DayStartMinute+i)) == math.Float64bits(minute) {
			return in.tab[i][0], in.tab[i][1]
		}
	}
	return in.demand(minute)
}

// demand evaluates the phase model at minute.
func (in Instance) demand(minute float64) (ipc, ceffNF float64) {
	b := in.Bench
	t := minute + in.OffsetMin
	w1 := 2 * math.Pi / b.PhasePeriodMin
	w2 := 2 * math.Pi / (b.PhasePeriodMin * 0.373)
	s1, c1 := math.Sincos(w1 * t)
	s2, c2 := math.Sincos(w2 * t)
	swingI := b.PhaseAmp * (0.6*s1 + 0.4*(s2*cos21+c2*sin21))
	swingC := b.PhaseAmp * (0.7*(s1*cos07+c1*sin07) + 0.3*(s2*cos19+c2*sin19))
	ipc = b.BaseIPC * clampFactor(1+swingI)
	ceffNF = b.BaseCeffNF * clampFactor(1+swingC)
	return ipc, ceffNF
}

// clampFactor keeps phase modulation from driving behaviour negative.
func clampFactor(f float64) float64 {
	if f < 0.05 {
		return 0.05
	}
	return f
}
