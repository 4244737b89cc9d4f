package solarcore_test

import (
	"context"
	"io"
	"testing"

	"solarcore"
)

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation adds allocations of its own.
var raceEnabled bool

// TestRunAllocationBudget gates the measured allocations of one simulated
// day (the BenchmarkRunMPPT day) at the counts the engine has today. A
// change that allocates per event — such as an emitter boxing a copy of
// each payload instead of reusing its slot — shows up here as hundreds
// of extra allocations. The no-op and metrics observers cost the
// nil-observer count plus a per-run constant (the emitter and the
// controller's levels buffer, with the runner's observer fan-out), and a
// warm Fixed-Power day replays its plan without allocating per
// sub-sample.
func TestRunAllocationBudget(t *testing.T) {
	cases := []struct {
		name string
		max  float64
		// race: the bound also holds under the race detector. It does not
		// where fmt or encoding/json run per day: the race detector's
		// sync.Pool drops a quarter of its Puts, so their buffer caches
		// allocate at random.
		race bool
		run  func() error
	}{
		{"Runner.Run/nil-observer", 92, true, runOnce(benchRunner(t))},
		{"RunSpec.Run/zero-spec", 98, true, func() error {
			_, err := solarcore.RunSpec{}.Run(context.Background())
			return err
		}},
		{"RunSpec.Run/fixed-75W", 30, false, func() error {
			_, err := solarcore.RunSpec{FixedW: 75}.Run(context.Background())
			return err
		}},
		{"Runner.Run/Nop", 99, true, runOnce(benchRunner(t, solarcore.WithObserver(solarcore.NopObserver())))},
		{"Runner.Run/Metrics", 99, true,
			runOnce(benchRunner(t, solarcore.WithObserver(solarcore.MetricsObserver(solarcore.NewRegistry()))))},
		{"Runner.Run/JSONLSink", 1348, false,
			runOnce(benchRunner(t, solarcore.WithObserver(solarcore.NewJSONLSink(io.Discard))))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && !tc.race {
				t.Skip("the race detector's sync.Pool allocates at random on this path")
			}
			var err error
			got := testing.AllocsPerRun(3, func() {
				if e := tc.run(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got > tc.max {
				t.Errorf("%v allocs per day, budget %v", got, tc.max)
			}
		})
	}
}

func runOnce(r *solarcore.Runner) func() error {
	return func() error {
		_, err := r.Run()
		return err
	}
}
