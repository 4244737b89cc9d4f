package exp

import (
	"context"
	"errors"
	"sync"
	"testing"

	"solarcore/internal/atmos"
	"solarcore/internal/sim"
)

// labMetricsRuns counts TestLabMetrics runs in this process. The day
// cache is process-wide, so each run names a day index no other test (and
// no earlier -count rerun) uses: otherwise its day could already be built.
var labMetricsRuns int

// TestLabMetrics checks the lab accounts cache traffic: a cold cell is a
// miss with a wall-time sample, a warm cell is a hit.
func TestLabMetrics(t *testing.T) {
	lab := NewLab(Options{Quick: true, Day: 100 + labMetricsRuns})
	labMetricsRuns++
	mix := lab.Opts.Mixes()[0]

	lab.MPPT(atmos.AZ, atmos.Jul, mix, "MPPT&Opt")
	lab.MPPT(atmos.AZ, atmos.Jul, mix, "MPPT&Opt")
	lab.Fixed(atmos.AZ, atmos.Jul, mix, 75)

	snap := lab.Metrics()
	if got := snap.Counters[MetricLabMisses]; got != 2 {
		t.Errorf("misses = %v, want 2", got)
	}
	if got := snap.Counters[MetricLabHits]; got != 1 {
		t.Errorf("hits = %v, want 1", got)
	}
	if got := snap.Counters[MetricLabDays]; got != 1 {
		t.Errorf("days built = %v, want 1", got)
	}
	h, ok := snap.Histograms[MetricLabCellMs]
	if !ok || h.Count != 2 {
		t.Fatalf("cell wall-time histogram = %+v, want 2 samples", h)
	}
	if h.Sum <= 0 {
		t.Errorf("cell wall time sum = %v, want positive", h.Sum)
	}
}

// labSingleFlightRuns does for TestLabCellSingleFlight what
// labMetricsRuns does for TestLabMetrics.
var labSingleFlightRuns int

// TestLabCellSingleFlight starts 8 callers of one cold cell at once: they
// must share one run, so the lab records one miss with one wall-time
// sample and 7 hits. The day is cold too, so the run is long enough for
// every caller to arrive while it is in progress.
func TestLabCellSingleFlight(t *testing.T) {
	lab := NewLab(Options{Quick: true, Day: 300 + labSingleFlightRuns})
	labSingleFlightRuns++
	mix := lab.Opts.Mixes()[0]
	const callers = 8
	start := make(chan struct{})
	results := make([]*sim.DayResult, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i] = lab.MPPT(atmos.NC, atmos.Oct, mix, "MPPT&RR")
		}()
	}
	close(start)
	wg.Wait()
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Errorf("caller %d got result %p, caller 0 got %p", i, r, results[0])
			break
		}
	}
	snap := lab.Metrics()
	if h := snap.Histograms[MetricLabCellMs]; h.Count != 1 {
		t.Errorf("%s count = %d, want 1 run", MetricLabCellMs, h.Count)
	}
	if got := snap.Counters[MetricLabMisses]; got != 1 {
		t.Errorf("misses = %v, want 1", got)
	}
	if got := snap.Counters[MetricLabHits]; got != callers-1 {
		t.Errorf("hits = %v, want %d", got, callers-1)
	}
}

// TestPrefetchContextCanceled checks a pre-canceled context stops the
// sweep before any simulation and returns the wrapped context error.
func TestPrefetchContextCanceled(t *testing.T) {
	lab := NewLab(Options{Quick: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := lab.PrefetchContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	snap := lab.Metrics()
	if snap.Counters[MetricLabMisses] != 0 {
		t.Errorf("canceled prefetch still simulated %v cells", snap.Counters[MetricLabMisses])
	}
}

// TestPrefetchContextCompletes checks the context-free wrapper fills the
// whole grid the paper's figures read: every MPPT policy, Fixed-Power
// budget and battery bracket of every site, season and mix, and the
// Fixed-Power budgets of Figure 15's mix, which the quick grid lacks.
func TestPrefetchContextCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-grid prefetch")
	}
	lab := NewLab(Options{Quick: true, StepMin: 4})
	if err := lab.PrefetchContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := lab.Metrics()
	modes := len(MPPTPolicies) + len(FixedBudgets) + len(BatteryEffs)
	want := float64(len(atmos.Sites) * len(atmos.Seasons) * (len(lab.Opts.Mixes())*modes + len(FixedBudgets)))
	if got := snap.Counters[MetricLabMisses]; got != want {
		t.Errorf("prefetch misses = %v, want %v", got, want)
	}
	if snap.Counters[MetricLabHits] != 0 {
		t.Errorf("prefetch should never hit its own cache, got %v hits", snap.Counters[MetricLabHits])
	}
}

// TestHeadlinesAfterPrefetchRunsNothing: after Prefetch, the headline
// figures (18, 21 and 17) read only cached cells, so no cell is left to
// run serially after the parallel sweep.
func TestHeadlinesAfterPrefetchRunsNothing(t *testing.T) {
	lab := quickLab(t)
	before := lab.Metrics().Counters[MetricLabMisses]
	Headlines(lab)
	if got := lab.Metrics().Counters[MetricLabMisses]; got != before {
		t.Errorf("Headlines after Prefetch ran %v cells", got-before)
	}
}

// TestFigure15AfterQuickPrefetchRunsNothing: Figure 15 reads its own mix,
// which the quick grid lacks, and a quick Prefetch still leaves it no
// cell to run serially.
func TestFigure15AfterQuickPrefetchRunsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-grid prefetch")
	}
	lab := NewLab(Options{Quick: true, StepMin: 4})
	lab.Prefetch()
	before := lab.Metrics().Counters[MetricLabMisses]
	Figure15(lab)
	if got := lab.Metrics().Counters[MetricLabMisses]; got != before {
		t.Errorf("Figure15 after a quick Prefetch ran %v cells", got-before)
	}
}
