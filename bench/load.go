package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

// sample is one successful operation: when it completed, in seconds
// since its phase began, and how long it took, in milliseconds.
type sample struct{ end, ms float64 }

// phase is the outcome of one closed-loop load phase.
type phase struct {
	dur     time.Duration // the phase's nominal length
	ok      [][]sample    // per client: successful operations
	failed  []int         // per client: failed operations
	errs    []error       // per client: first failure
	elapsed time.Duration // start to last completion
}

// runPhase drives clients closed-loop: each sends its next operation
// only after the previous one completed, and starts operations until dur
// has passed since the phase began (so every client attempts at least
// one).
func runPhase(ctx context.Context, clients int, dur time.Duration, op func(ctx context.Context, client int) error) phase {
	ph := phase{dur: dur, ok: make([][]sample, clients), failed: make([]int, clients), errs: make([]error, clients)}
	ends := make([]time.Duration, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && (len(ph.ok[c])+ph.failed[c] == 0 || time.Since(start) < dur) {
				t0 := time.Now()
				err := op(ctx, c)
				ends[c] = time.Since(start)
				if err != nil {
					ph.failed[c]++
					if ph.errs[c] == nil {
						ph.errs[c] = err
					}
					continue
				}
				ph.ok[c] = append(ph.ok[c], sample{end: ends[c].Seconds(), ms: ms(time.Since(t0))})
			}
		}()
	}
	wg.Wait()
	for _, e := range ends {
		ph.elapsed = max(ph.elapsed, e)
	}
	return ph
}

// minWindowOps is the fewest operations a statistics window should hold
// on average; it sets how finely a phase is cut.
const minWindowOps = 20

// stats are end-to-end numbers over some clients of one or more phases.
type stats struct {
	n             int     // successful operations
	failed        int     // failed operations
	firstErr      error   // first failure
	windows       int     // windows the numbers below are medians over
	reqPerS       float64 // operations completed per second
	p50, p90, p99 float64 // latency quantiles, ms
}

// statsOf takes the given clients of each phase (nil: every client) and
// cuts the phase into equal windows — one per second, fewer when that
// would leave under minWindowOps operations per window. It computes
// throughput and latency quantiles per window and reports each as its
// median over the windows of all the phases. A burst of interference
// from outside the benchmark then moves one window, and a slow process
// start one phase, not the result. A phase cut into a single window
// counts up to its last completion.
func statsOf(phases []phase, clients []int) stats {
	var st stats
	var rate, p50, p90, p99 []float64
	for _, ph := range phases {
		var all []sample
		cs := clients
		if cs == nil {
			for c := range ph.ok {
				cs = append(cs, c)
			}
		}
		for _, c := range cs {
			all = append(all, ph.ok[c]...)
			st.failed += ph.failed[c]
			if st.firstErr == nil {
				st.firstErr = ph.errs[c]
			}
		}
		st.n += len(all)
		windows := max(1, min(int(ph.dur/time.Second), len(all)/minWindowOps))
		span := ph.elapsed.Seconds()
		if windows > 1 {
			span = ph.dur.Seconds()
		}
		width := span / float64(windows)
		lat := make([][]float64, windows)
		for _, s := range all {
			if w := min(int(s.end/width), windows-1); s.end < span || windows == 1 {
				lat[w] = append(lat[w], s.ms)
			}
		}
		for _, l := range lat {
			sort.Float64s(l)
			rate = append(rate, float64(len(l))/width)
			p50 = append(p50, quantile(l, 0.50))
			p90 = append(p90, quantile(l, 0.90))
			p99 = append(p99, quantile(l, 0.99))
		}
		st.windows += windows
	}
	st.reqPerS, st.p50, st.p90, st.p99 = median(rate), median(p50), median(p90), median(p99)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of sorted values by linear interpolation
// between closest ranks (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
