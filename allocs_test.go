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
// change that allocates per event on the nil-observer path — such as an
// emit helper taking its payload's address before the nil check — shows
// up here as hundreds of extra allocations.
func TestRunAllocationBudget(t *testing.T) {
	cases := []struct {
		name string
		max  float64
		race bool // the bound also holds under the race detector
		run  func() error
	}{
		{"Runner.Run/nil-observer", 392, true, runOnce(benchRunner(t))},
		{"RunSpec.Run/zero-spec", 397, true, func() error {
			_, err := solarcore.RunSpec{}.Run(context.Background())
			return err
		}},
		{"Runner.Run/JSONLSink", 2952, false,
			runOnce(benchRunner(t, solarcore.WithObserver(solarcore.NewJSONLSink(io.Discard))))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && !tc.race {
				t.Skip("the race detector allocates on the encoder path")
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
