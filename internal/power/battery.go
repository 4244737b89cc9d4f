package power

import "fmt"

// BatteryGrade captures one row of Table 3: the performance level of a
// battery-equipped standalone PV system, decomposed into MPP tracking
// efficiency and battery round-trip efficiency. The product is the overall
// de-rating factor bounding how much of the panel's theoretical maximum
// energy such a system can deliver to the load.
type BatteryGrade struct {
	Name         string
	TrackingEff  float64 // MPPT charge-controller conversion efficiency, fraction
	RoundTripEff float64 // battery charge/discharge round-trip efficiency, fraction
}

// The three performance levels of Table 3.
var (
	BatteryHigh     = BatteryGrade{Name: "High", TrackingEff: 0.97, RoundTripEff: 0.95}
	BatteryModerate = BatteryGrade{Name: "Moderate", TrackingEff: 0.95, RoundTripEff: 0.85}
	BatteryLow      = BatteryGrade{Name: "Low", TrackingEff: 0.93, RoundTripEff: 0.75}
)

// BatteryGrades lists the Table 3 levels, best first.
var BatteryGrades = []BatteryGrade{BatteryHigh, BatteryModerate, BatteryLow}

// Derating returns the overall de-rating factor (Table 3's bottom row):
// tracking efficiency × round-trip efficiency.
func (g BatteryGrade) Derating() float64 { return g.TrackingEff * g.RoundTripEff }

// String describes the grade.
func (g BatteryGrade) String() string {
	return fmt.Sprintf("%s-efficiency battery (derating %.0f%%)", g.Name, g.Derating()*100)
}

// The Section 6.4 comparison brackets: Battery-U is the upper bound of a
// high-efficiency battery system (92 % total conversion efficiency) and
// Battery-L its lower bound (81 %).
const (
	BatteryUpperEff = 0.92
	BatteryLowerEff = 0.81
)

// BatterySystem models the battery-equipped standalone PV baseline of
// Section 5: the panel is always operated at its MPP by a dedicated charge
// controller, all harvested energy is buffered, and the processor then
// consumes the de-rated energy at full speed under a stable supply.
type BatterySystem struct {
	// Eff is the total conversion efficiency applied to harvested energy,
	// as a fraction in (0, 1] (use a BatteryGrade's Derating, or
	// BatteryUpperEff/BatteryLowerEff).
	Eff float64

	storedWh float64
}

// NewBatterySystem builds a battery baseline with the given total
// conversion efficiency.
func NewBatterySystem(eff float64) *BatterySystem {
	return &BatterySystem{Eff: eff}
}

// Harvest credits the battery with the panel's maximum available power
// (watts) over dMin minutes, after de-rating.
func (b *BatterySystem) Harvest(pMPP, dMin float64) {
	if pMPP < 0 {
		return
	}
	b.storedWh += pMPP * dMin / 60 * b.Eff
}

// Draw withdraws up to p watts for dMin minutes and returns the minutes of
// full-power operation actually supported (the dynamic power monitor of
// Section 5 guarantees all stored energy is eventually consumed).
func (b *BatterySystem) Draw(p, dMin float64) float64 {
	if p <= 0 {
		return dMin
	}
	needWh := p * dMin / 60
	if needWh <= b.storedWh {
		b.storedWh -= needWh
		return dMin
	}
	got := b.storedWh / p * 60
	b.storedWh = 0
	return got
}

// StoredWh returns the remaining buffered energy.
func (b *BatterySystem) StoredWh() float64 { return b.storedWh }
