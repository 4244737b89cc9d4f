package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"solarcore/internal/fault"
)

func TestFaultSweepSensorDropout(t *testing.T) {
	if testing.Short() {
		t.Skip("full intensity grid")
	}
	res, err := FaultSweep(Options{Quick: true, StepMin: 4}, fault.KindSensorDrop)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Util) != len(FaultSweepIntensities) {
		t.Fatalf("rows = %d, want %d", len(res.Util), len(FaultSweepIntensities))
	}
	if res.Trips[0] != 0 {
		t.Errorf("intensity-zero row tripped the watchdog %d times", res.Trips[0])
	}
	last := len(res.Util) - 1
	if res.Trips[last] == 0 {
		t.Error("total dropout never tripped the watchdog")
	}
	// Graceful, not catastrophic: the faulted MPPT&Opt day keeps a
	// substantial share of its clean utilization (highest-intensity row
	// over the intensity-zero row).
	pi := indexOf(res.Policies, "MPPT&Opt")
	if pi < 0 {
		t.Fatalf("no MPPT&Opt column in %v", res.Policies)
	}
	if ret := res.Util[last][pi] / res.Util[0][pi]; ret <= 0.5 || ret > 1.001 {
		t.Errorf("MPPT&Opt retention %.3f, want in (0.5, 1]", ret)
	}
	out := res.Render()
	for _, want := range []string{"intensity", "MPPT&Opt", "Fixed-75W", "watchdog trips"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table misses %q:\n%s", want, out)
		}
	}
}

func TestFaultSweepUnknownKind(t *testing.T) {
	_, err := FaultSweep(Options{Quick: true}, "warp-core")
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), fault.KindCloud) {
		t.Errorf("error %q does not list the valid kinds", err)
	}
}

// TestPrefetchContainsPanickingCell gives the lab a fault spec no cell
// can run: every cell's run panics in its worker, and the Lab must
// contain it and report the cell and the cause.
func TestPrefetchContainsPanickingCell(t *testing.T) {
	lab := NewLab(Options{Quick: true, StepMin: 4, Faults: "warp-core:t0=0,t1=1,i=1"})
	err := lab.PrefetchContext(context.Background())
	if err == nil {
		t.Fatal("panicking cells surfaced no error")
	}
	// The error names the cell, not just the panic payload.
	if !strings.Contains(err.Error(), `unknown kind "warp-core"`) {
		t.Errorf("error %q misses the cause", err)
	}
	if !strings.Contains(err.Error(), "MPPT&Opt") {
		t.Errorf("error %q does not identify a cell", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Error("panic containment mislabeled as cancellation")
	}
}
