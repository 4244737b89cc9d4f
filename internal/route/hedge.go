package route

import (
	"sort"
	"sync"
	"time"
)

// latWindow keeps the most recent upstream latencies (successful
// attempts only) in a fixed ring, so the router can derive its hedge
// delay from the fleet's live p95 instead of a guessed constant. All
// methods are safe for concurrent use; the window is small enough that
// copying it out for a percentile is cheap.
type latWindow struct {
	mu  sync.Mutex
	buf []float64 // ms
	n   int       // total observations ever
	pos int
}

// latWindowSize is how many samples the p95 looks back over.
const latWindowSize = 512

// latMinSamples is the observation count below which the window refuses
// to estimate: with too few samples the p95 is noise, and hedging on
// noise doubles load for nothing.
const latMinSamples = 16

func newLatWindow() *latWindow {
	return &latWindow{buf: make([]float64, 0, latWindowSize)}
}

// add records one latency in milliseconds.
func (w *latWindow) add(ms float64) {
	w.mu.Lock()
	if len(w.buf) < latWindowSize {
		w.buf = append(w.buf, ms)
	} else {
		w.buf[w.pos] = ms
		w.pos = (w.pos + 1) % latWindowSize
	}
	w.n++
	w.mu.Unlock()
}

// p95 returns the 95th-percentile latency of the window and true, or 0
// and false while fewer than latMinSamples observations exist.
func (w *latWindow) p95() (float64, bool) {
	w.mu.Lock()
	if w.n < latMinSamples {
		w.mu.Unlock()
		return 0, false
	}
	s := append([]float64(nil), w.buf...)
	w.mu.Unlock()
	sort.Float64s(s)
	idx := int(0.95*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], true
}

// hedgeDelay resolves the delay before a request is hedged to the next
// ring owner: the live p95 clamped to [HedgeMin, HedgeMax], so equal
// bounds fix it. Before enough samples exist the router hedges late
// (HedgeMax) rather than early — a cold fleet must not double its own
// warm-up load.
func (rt *Router) hedgeDelay() time.Duration {
	p95, ok := rt.lat.p95()
	if !ok {
		return rt.cfg.HedgeMax
	}
	return min(max(time.Duration(p95*float64(time.Millisecond)), rt.cfg.HedgeMin), rt.cfg.HedgeMax)
}
