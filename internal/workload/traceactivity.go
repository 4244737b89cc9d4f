package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"solarcore/internal/mathx"
	"solarcore/internal/mcore"
)

// TraceActivity replays a recorded per-interval (IPC, Ceff) profile —
// e.g. exported from hardware performance counters or a cycle-accurate
// simulator run — in place of the synthetic phase model. The profile
// repeats cyclically, matching how the paper runs each benchmark's
// representative execution interval in a loop.
//
// A chip samples Demand once per mcore.Chip.At, so edits to the exported
// fields take effect at the chip's next At or SetActivity.
type TraceActivity struct {
	// StepMin is the profile sampling interval in minutes.
	StepMin float64
	IPC     []float64
	CeffNF  []float64
}

var _ mcore.Activity = (*TraceActivity)(nil)

// NewTraceActivity validates and wraps a profile.
func NewTraceActivity(stepMin float64, ipc, ceffNF []float64) (*TraceActivity, error) {
	if stepMin <= 0 {
		return nil, fmt.Errorf("workload: trace step must be positive")
	}
	if len(ipc) == 0 || len(ipc) != len(ceffNF) {
		return nil, fmt.Errorf("workload: trace needs equal non-empty IPC and Ceff columns")
	}
	for i := range ipc {
		if ipc[i] <= 0 || ceffNF[i] <= 0 {
			return nil, fmt.Errorf("workload: trace sample %d not positive", i)
		}
	}
	return &TraceActivity{StepMin: stepMin, IPC: ipc, CeffNF: ceffNF}, nil
}

// Demand interpolates the profile cyclically at the given minute.
func (a *TraceActivity) Demand(minute float64) (ipc, ceffNF float64) {
	n := len(a.IPC)
	if n == 1 {
		return a.IPC[0], a.CeffNF[0]
	}
	pos := minute / a.StepMin
	for pos < 0 {
		pos += float64(n)
	}
	i := int(pos) % n
	j := (i + 1) % n
	frac := pos - float64(int(pos))
	return mathx.Lerp(a.IPC[i], a.IPC[j], frac), mathx.Lerp(a.CeffNF[i], a.CeffNF[j], frac)
}

// ReadActivityCSV parses a profile in the layout
//
//	minute,ipc,ceff_nf
//	0,0.8,3.1
//	1,0.9,3.3
//
// with uniformly spaced minutes and an optional header row.
func ReadActivityCSV(r io.Reader) (*TraceActivity, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: reading activity CSV: %w", err)
	}
	if len(recs) > 0 && recs[0][0] == "minute" {
		recs = recs[1:]
	}
	var minutes, ipc, ceff []float64
	for i, rec := range recs {
		if len(rec) != 3 {
			return nil, fmt.Errorf("workload: activity row %d: want 3 columns", i+1)
		}
		m, err1 := strconv.ParseFloat(rec[0], 64)
		p, err2 := strconv.ParseFloat(rec[1], 64)
		c, err3 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("workload: activity row %d: non-numeric field", i+1)
		}
		minutes = append(minutes, m)
		ipc = append(ipc, p)
		ceff = append(ceff, c)
	}
	if len(minutes) < 1 {
		return nil, fmt.Errorf("workload: empty activity trace")
	}
	step := 1.0
	if len(minutes) >= 2 {
		step = minutes[1] - minutes[0]
		for i := 1; i < len(minutes); i++ {
			if gap := minutes[i] - minutes[i-1]; gap <= 0 || math.Abs(gap-step) > 1e-6 {
				return nil, fmt.Errorf("workload: activity trace not uniformly spaced at row %d", i+1)
			}
		}
	}
	return NewTraceActivity(step, ipc, ceff)
}

// WriteActivityCSV emits the profile in the layout ReadActivityCSV
// accepts, so profiles can be generated, edited and replayed through
// external tooling.
func (a *TraceActivity) WriteActivityCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"minute", "ipc", "ceff_nf"}); err != nil {
		return err
	}
	for i := range a.IPC {
		rec := []string{
			strconv.FormatFloat(float64(i)*a.StepMin, 'f', 4, 64),
			strconv.FormatFloat(a.IPC[i], 'f', 6, 64),
			strconv.FormatFloat(a.CeffNF[i], 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
