package sim

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/mcore"
	"solarcore/internal/sched"
	"solarcore/internal/workload"
)

// chipRecorder is the MPPT&Opt allocator that remembers the chip its run
// moves.
type chipRecorder struct {
	sched.OptTPR
	chip *mcore.Chip
}

func (a *chipRecorder) Raise(chip *mcore.Chip) bool {
	a.chip = chip
	return a.OptTPR.Raise(chip)
}

func (a *chipRecorder) Lower(chip *mcore.Chip) bool {
	a.chip = chip
	return a.OptTPR.Lower(chip)
}

// TestConcurrentRunsShareDemandTables runs one mix on one cached day
// twice at once and twice in turn. Every run's chip holds, core for
// core, the same workload.Instance, demand table included (an Instance
// compares its table by address), and the concurrent runs give the
// serial runs' result bytes.
func TestConcurrentRunsShareDemandTables(t *testing.T) {
	day, _, err := CachedDay(atmos.NC, atmos.Oct, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mix(t, "L2")
	run := func() ([]byte, *mcore.Chip, error) {
		alloc := new(chipRecorder)
		res, err := RunMPPT(Config{Day: day, Mix: m}, alloc)
		if err != nil {
			return nil, nil, err
		}
		out, err := json.Marshal(res)
		return out, alloc.chip, err
	}

	var out [4][]byte
	var chips [4]*mcore.Chip
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if out[i], chips[i], err = run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 2; i < 4; i++ {
		if out[i], chips[i], err = run(); err != nil {
			t.Fatal(err)
		}
	}

	for i := range 2 {
		if !bytes.Equal(out[i], out[2+i]) {
			t.Errorf("concurrent run %d differs from serial run %d", i, i)
		}
	}
	for i, chip := range chips {
		if chip == nil {
			t.Fatalf("run %d never moved its chip", i)
		}
	}
	for core := range chips[0].NumCores() {
		in, ok := chips[0].Activity(core).(workload.Instance)
		if !ok {
			t.Fatalf("core %d runs %T, want a workload.Instance", core, chips[0].Activity(core))
		}
		if in == (workload.Instance{Bench: in.Bench, OffsetMin: in.OffsetMin}) {
			t.Errorf("core %d: the run's instance has no demand table", core)
		}
		for i := 1; i < len(chips); i++ {
			if got := chips[i].Activity(core); got != in {
				t.Errorf("core %d: run %d reads another instance or table than run 0", core, i)
			}
		}
	}
}
