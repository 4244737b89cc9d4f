package sim

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/fault"
	"solarcore/internal/sched"
)

// TestConcurrentRunsOwnTheirCurves runs different MPPT days on one cached
// SolarDay at once and then in turn: a clean run, an event-tracking run
// and a run under string disconnects and clouds, whose sessions track on
// a scaled curve. Each run samples its own panel curves and fills its own
// load-line memos from the shared generator, so under -race nothing is
// written to shared state and every concurrent run gives its serial
// run's result bytes.
func TestConcurrentRunsOwnTheirCurves(t *testing.T) {
	day, _, err := CachedDay(atmos.CO, atmos.Apr, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := fault.ParseSpec("cloud:t0=560,t1=640,i=0.7;string-cut:t0=620,t1=760,i=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		{Day: day, Mix: mix(t, "H1")},
		{Day: day, Mix: mix(t, "M2"), EventTracking: true},
		{Day: day, Mix: mix(t, "HM2"), Faults: faults},
	}
	run := func(cfg Config) ([]byte, error) {
		res, err := RunMPPT(cfg, sched.OptTPR{})
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	concurrent := make([][]byte, 2*len(cfgs))
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if concurrent[i], err = run(cfgs[i%len(cfgs)]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, cfg := range cfgs {
		serial, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{i, i + len(cfgs)} {
			if !bytes.Equal(concurrent[j], serial) {
				t.Errorf("concurrent run %d of config %d differs from its serial run", j, i)
			}
		}
	}
}
