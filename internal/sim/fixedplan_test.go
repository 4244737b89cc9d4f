package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/lru"
	"solarcore/internal/mcore"
	"solarcore/internal/obs"
	"solarcore/internal/pv"
	"solarcore/internal/workload"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// newPlans builds an empty plan memo of the process-wide one's shape, so
// tests never depend on what other tests left in the shared instance.
func newPlans() *lru.Cache[planKey, *fixedPlan] {
	return lru.New[planKey, *fixedPlan](fixedPlanCap)
}

// fixedRun runs one Fixed-Power day with the series kept and a JSONL
// sink attached, and returns the marshalled result and the event stream.
// A nil plans runs live.
//
// unit: budgetW=W
func fixedRun(cfg Config, budgetW float64, plans *lru.Cache[planKey, *fixedPlan]) (res, events []byte, err error) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	cfg.Observer = sink
	cfg.KeepSeries = true
	r, err := runFixed(cfg, budgetW, plans)
	if err != nil {
		return nil, nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, nil, err
	}
	res, err = json.Marshal(r)
	return res, buf.Bytes(), err
}

// fixedBytes is fixedRun that fails the test on an error.
//
// unit: budgetW=W
func fixedBytes(t *testing.T, cfg Config, budgetW float64, plans *lru.Cache[planKey, *fixedPlan]) (res, events []byte) {
	t.Helper()
	res, events, err := fixedRun(cfg, budgetW, plans)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestFixedPlanMatchesLive holds a planned Fixed-Power day to the
// live-sampled one bit for bit, in its result (series included) and in
// its event stream: every Table 5 mix, budgets 25–125 W and one above the
// chip's maximum, steps 1 and 2 on three days (the last with two panels)
// and the finer steps 0.5 and 0.3 on the first. Each planned day runs
// twice, once filling the plan and once replaying it.
func TestFixedPlanMatchesLive(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine, about 2,000 encoded days: too slow under the race detector")
	}
	days := []*SolarDay{testDay(t, atmos.AZ, atmos.Jul), testDay(t, atmos.NC, atmos.Jan)}
	tr := atmos.Generate(atmos.CO, atmos.Apr, atmos.GenConfig{Day: 5})
	d, err := NewSolarDay(tr, pv.BP3180N(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	days = append(days, d)
	for _, step := range []float64{1, 2, 0.5, 0.3} {
		stepDays := days
		if step < 1 || testing.Short() {
			stepDays = days[:1]
		}
		plans := newPlans()
		keys := 0
		for _, m := range workload.Mixes {
			for _, budget := range []float64{25, 50, 75, 100, 125, 1000} {
				for di, day := range stepDays {
					name := fmt.Sprintf("step%g/%s/%gW/day%d", step, m.Name, budget, di)
					cfg := Config{Day: day, Mix: m, StepMin: step}
					wantRes, wantEv := fixedBytes(t, cfg, budget, nil)
					for pass := range 2 {
						res, ev := fixedBytes(t, cfg, budget, plans)
						if !bytes.Equal(res, wantRes) {
							t.Fatalf("%s pass %d: planned result differs from live\nplan %s\nlive %s", name, pass, res, wantRes)
						}
						if !bytes.Equal(ev, wantEv) {
							t.Fatalf("%s pass %d: planned events differ from live", name, pass)
						}
					}
				}
				// Every (mix, budget) stored one plan its days shared.
				keys++
				if got, want := plans.Len(), min(keys, fixedPlanCap); got != want {
					t.Fatalf("step %g after %s at %g W: %d plans, want %d", step, m.Name, budget, got, want)
				}
			}
		}
	}
}

// TestFixedPlanKeyNeverSharesConfigs runs, on one memo, a custom mix
// that carries a Table 5 name with other programs and a non-default chip
// under a Table 5 mix, each before and after the configuration the key
// otherwise names: every run must equal its own live day.
func TestFixedPlanKeyNeverSharesConfigs(t *testing.T) {
	day := testDay(t, atmos.AZ, atmos.Apr)
	h1 := mix(t, "H1")
	impostor := workload.Mix{Name: "H1", Programs: mix(t, "L1").Programs}
	fine := mcore.DefaultConfig()
	fine.Points = mcore.LinearPoints(11)
	cfgs := []Config{
		{Day: day, Mix: impostor},
		{Day: day, Mix: h1},
		{Day: day, Mix: impostor},
		{Day: day, Mix: h1, Chip: fine},
		{Day: day, Mix: h1, Chip: mcore.BigLittleConfig()},
		{Day: day, Mix: h1},
		{Day: day, Mix: h1, Chip: fine},
	}
	plans := newPlans()
	for i, cfg := range cfgs {
		wantRes, wantEv := fixedBytes(t, cfg, 60, nil)
		res, ev := fixedBytes(t, cfg, 60, plans)
		if !bytes.Equal(res, wantRes) || !bytes.Equal(ev, wantEv) {
			t.Errorf("run %d (%v, %d points, classes %v) got another config's plan",
				i, cfg.Mix.Programs, len(cfg.Chip.Points), cfg.Chip.Classes != nil)
		}
	}
	if plans.Len() != 1 {
		t.Errorf("%d plans, want the one key all runs share", plans.Len())
	}
}

// TestFixedPlanSizeBound runs a day finer than planMaxSamples: it must
// run live, equal the live day, and store nothing.
func TestFixedPlanSizeBound(t *testing.T) {
	cfg := Config{Day: testDay(t, atmos.AZ, atmos.Jul), Mix: mix(t, "HM2"), StepMin: 0.2}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	plans := newPlans()
	if p := planFor(plans, &cfg, 75); p != nil {
		t.Fatalf("a %g-minute step planned %d sub-samples, bound %d", cfg.StepMin, len(p.samples), planMaxSamples)
	}
	wantRes, wantEv := fixedBytes(t, cfg, 75, nil)
	res, ev := fixedBytes(t, cfg, 75, plans)
	if !bytes.Equal(res, wantRes) || !bytes.Equal(ev, wantEv) {
		t.Error("a day past the bound differs from the live day")
	}
	if plans.Len() != 0 {
		t.Errorf("a day past the bound stored %d plans", plans.Len())
	}
	// The step-1 day is well inside the bound.
	cfg.StepMin = 1
	if p := planFor(plans, &cfg, 75); p == nil || len(p.samples) != 600 {
		t.Errorf("the step-1 day did not plan its 600 sub-samples")
	}
}

// TestFixedPlanBuiltOnce runs one key from many goroutines: every caller
// gets the same plan, so it was built once, and every day's bytes equal
// the live day's.
func TestFixedPlanBuiltOnce(t *testing.T) {
	cfg := Config{Day: testDay(t, atmos.NC, atmos.Apr), Mix: mix(t, "ML2")}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	wantRes, wantEv := fixedBytes(t, cfg, 90, nil)
	plans := newPlans()
	const callers = 16
	got := make([]*fixedPlan, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			got[i] = planFor(plans, &c, 90)
			res, ev, err := fixedRun(cfg, 90, plans)
			if err != nil {
				t.Error(err)
			} else if !bytes.Equal(res, wantRes) || !bytes.Equal(ev, wantEv) {
				t.Errorf("caller %d: planned day differs from live", i)
			}
		}()
	}
	wg.Wait()
	for i := range callers {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got plan %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if plans.Len() != 1 {
		t.Errorf("%d plans for one key", plans.Len())
	}
}
