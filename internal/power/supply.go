package power

// Source identifies which supply feeds the processor rail.
type Source int

// Supply sources selected by the automatic transfer switch.
const (
	Solar Source = iota
	Utility
)

// TransferSwitch is the automatic transfer switch (ATS) of Figure 8: it
// seamlessly selects between the solar panel and the grid backup and counts
// transitions, which matter because every switch to utility is fossil
// energy drawn and every switch back is green energy reclaimed.
type TransferSwitch struct {
	source   Source
	switches int
}

// NewTransferSwitch starts on the given source.
func NewTransferSwitch(initial Source) *TransferSwitch {
	return &TransferSwitch{source: initial}
}

// Source returns the currently selected supply.
func (t *TransferSwitch) Source() Source { return t.source }

// Select switches to the given supply and reports whether a transition
// occurred.
func (t *TransferSwitch) Select(s Source) bool {
	if s == t.source {
		return false
	}
	t.source = s
	t.switches++
	return true
}

// Switches returns the number of transitions so far.
func (t *TransferSwitch) Switches() int { return t.switches }

// EnergyMeter accumulates energy drawn from each source over a simulated
// run. Durations are in minutes, power in watts, energy reported in Wh.
type EnergyMeter struct {
	wh [2]float64
}

// Add charges p watts for dMin minutes to the given source.
func (m *EnergyMeter) Add(s Source, p, dMin float64) {
	m.wh[s] += p * dMin / 60
}

// EnergyWh returns the energy drawn from the source in watt-hours.
func (m *EnergyMeter) EnergyWh(s Source) float64 { return m.wh[s] }
