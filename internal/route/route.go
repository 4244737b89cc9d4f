// Package route is solargate's fleet-routing core: the solard wire API
// (solarcore/client) spread across N solard backends by one stdlib-only
// HTTP coordinator. The paper's SolarCore allocator divides one solar
// budget across cores; this package applies the same divide-route-merge
// shape one level up, across simulation nodes (DESIGN.md §15):
//
//   - consistent hashing — RunSpec.Hash() maps each spec to a backend
//     through a virtual-node hash ring, so identical specs always land
//     on the same node and the fleet's result caches partition the key
//     space instead of duplicating it;
//   - hedging — a request still unanswered after a p95-derived delay is
//     raced against the next ring owner; the first response wins and
//     the loser's context is canceled;
//   - retries — 429/5xx and transport failures fail over to the next
//     distinct owner with capped exponential backoff, honoring the
//     upstream's Retry-After hint;
//   - health — backends are probed via /healthz; consecutive failures
//     eject a backend from routing, a later success re-admits it;
//   - merge — /v1/sweep batches fan out as per-cell /v1/run requests to
//     their owning shards (order preserved), and /metrics aggregates
//     every node's registry snapshot through obs.MergeSnapshots.
//
// Like internal/serve, the package reads no wall clock of its own:
// Config.Clock injects one (cmd/solargate passes time.Now), and without
// it latency-derived behavior degrades to conservative constants.
package route

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"solarcore/client"
	"solarcore/internal/edge"
	"solarcore/internal/obs"
)

// Router metric names, exported by the fleet-wide /metrics (merged into
// the backends' serve_* counters).
const (
	// MetricRequests counts completed HTTP requests across all routes.
	MetricRequests = "route_requests_total"
	// MetricHedges counts hedge attempts launched.
	MetricHedges = "route_hedges_total"
	// MetricHedgeWins counts requests won by the hedged attempt.
	MetricHedgeWins = "route_hedge_wins_total"
	// MetricRetries counts fail-over retry attempts launched.
	MetricRetries = "route_retries_total"
	// MetricEjections counts backends ejected by failed health probes.
	MetricEjections = "route_ejections_total"
	// MetricReadmissions counts ejected backends re-admitted by a
	// passing probe.
	MetricReadmissions = "route_readmissions_total"
	// MetricPanics counts handler panics contained by the middleware.
	MetricPanics = "route_panics_total"
	// MetricStreams counts /v1/stream relays committed to a watcher.
	MetricStreams = "route_streams_total"
	// MetricStreamEvents counts identified SSE events relayed downstream
	// (heartbeats and gap frames carry no id and are not counted).
	MetricStreamEvents = "route_stream_events_total"
	// MetricStreamReconnects counts mid-stream fail-overs to another
	// backend connection with a Last-Event-ID resume.
	MetricStreamReconnects = "route_stream_reconnects_total"
	// MetricUpstreamMs is a histogram of successful upstream attempt
	// latencies in milliseconds (zero without a Config.Clock).
	MetricUpstreamMs = "route_upstream_ms"
	// MetricBackendsHealthy gauges backends currently in routing.
	MetricBackendsHealthy = "route_backends_healthy"
)

// ErrNoBackends means no healthy backend exists for a request.
var ErrNoBackends = errors.New("route: no healthy backend")

// Config tunes a Router. Backends is required; every other zero field
// materializes a documented default.
type Config struct {
	// Backends are the solard base URLs (http://host:port). At least one
	// is required; duplicates are rejected.
	Backends []string
	// VNodes is the virtual-node count per backend on the hash ring
	// (default 64). More vnodes smooth the key split at the cost of ring
	// size; 64 keeps per-backend shares within a few percent of even.
	VNodes int
	// HedgeDelay, when positive, fixes the delay before a slow request
	// is hedged to the next ring owner. Zero selects the adaptive delay:
	// the live p95 of upstream latencies clamped to [HedgeMin, HedgeMax].
	HedgeDelay time.Duration
	// HedgeMin / HedgeMax clamp the adaptive hedge delay
	// (defaults 25ms / 500ms).
	HedgeMin time.Duration
	HedgeMax time.Duration
	// MaxRetries bounds fail-over retry attempts per request beyond the
	// first (default 2).
	MaxRetries int
	// BackoffBase / BackoffCap shape the capped exponential retry
	// backoff (defaults 25ms / 1s); an upstream Retry-After above the
	// computed backoff is honored up to BackoffCap.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// ProbeInterval is the health-check period (default 500ms);
	// ProbeTimeout bounds one probe (default ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// ProbeJitter spreads each probe period uniformly over
	// ProbeInterval·[1−j, 1+j] (default 0.2, capped at 0.9; negative
	// pins the period exactly — tests use that) so a fleet of routers
	// restarted together does not probe every backend in lockstep
	// forever. Jitter draws from a rand seeded by Seed — fully
	// deterministic, like everything else in this repository.
	ProbeJitter float64
	// Seed feeds the router's internal randomness (probe jitter); the
	// default 1 matches the repo-wide seeded-rand convention.
	Seed int64
	// FailThreshold is how many consecutive probe failures eject a
	// backend (default 3).
	FailThreshold int
	// MaxSweep caps the runs accepted in one /v1/sweep batch (default 256).
	MaxSweep int
	// SweepWorkers bounds concurrent per-cell fan-out requests per sweep
	// (default 4 per backend).
	SweepWorkers int
	// Registry receives the route_* metrics; nil builds a private one.
	Registry *obs.Registry
	// AccessLog, when non-nil, receives one obs.AccessEvent JSON line
	// per completed request.
	AccessLog *obs.JSONLSink
	// Clock supplies wall time for latency metrics, the adaptive hedge
	// window and access-log durations. nil is valid — durations report
	// zero and hedging falls back to HedgeMax — because internal
	// packages must not read the wall clock themselves (solarvet's
	// seededrand rule); cmd/solargate injects time.Now.
	Clock func() time.Time
	// HTTPClient overrides the upstream transport (tests inject fakes);
	// nil uses the client package's shared keep-alive pool.
	HTTPClient *http.Client
}

// withDefaults returns cfg with every zero field materialized.
func (c Config) withDefaults() Config {
	if c.VNodes < 1 {
		c.VNodes = 64
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 25 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 500 * time.Millisecond
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 3
	}
	if c.ProbeJitter == 0 {
		c.ProbeJitter = 0.2
	}
	if c.ProbeJitter < 0 {
		c.ProbeJitter = 0
	}
	if c.ProbeJitter > 0.9 {
		c.ProbeJitter = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxSweep < 1 {
		c.MaxSweep = 256
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = 4 * len(c.Backends)
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = func() time.Time { return time.Time{} }
	}
	return c
}

// backend is one solard node: its typed client plus live health state.
type backend struct {
	name    string // base URL, the ring identity
	cli     *client.Client
	healthy atomic.Bool
	fails   atomic.Int32 // consecutive probe failures
}

// Router is the fleet coordinator. Build one with New, launch the
// health prober with Start, mount Handler on an http.Server, and on
// shutdown call StartDrain, drain the listener, then Close.
type Router struct {
	cfg       Config
	reg       *obs.Registry
	ring      *ring
	backends  []*backend
	lat       *latWindow
	probeRand *rand.Rand // jitter source; owned by the probeLoop goroutine

	draining  atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	mux *http.ServeMux
}

// New builds a Router over cfg. Backends start healthy (optimistic —
// the first probe round corrects within ProbeInterval).
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("route: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:       cfg,
		reg:       cfg.Registry,
		lat:       newLatWindow(),
		probeRand: rand.New(rand.NewSource(cfg.Seed)),
		done:      make(chan struct{}),
	}
	seen := map[string]bool{}
	names := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		name := normalizeBackend(raw)
		if name == "" {
			return nil, fmt.Errorf("route: empty backend URL in %q", raw)
		}
		if seen[name] {
			return nil, fmt.Errorf("route: duplicate backend %q", name)
		}
		seen[name] = true
		names = append(names, name)
		var opts []client.Option
		if cfg.HTTPClient != nil {
			opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
		}
		b := &backend{name: name, cli: client.New(name, opts...)}
		b.healthy.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.ring = buildRing(names, cfg.VNodes)
	rt.setHealthyGauge()

	rt.mux = http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		rt.mux.Handle(pattern, edge.Instrument(h, cfg.Clock, cfg.AccessLog, rt.countRequest, rt.countPanic))
	}
	handle("POST /v1/run", rt.handleRun)
	handle("POST /v1/sweep", rt.handleSweep)
	handle("GET /v1/stream", rt.handleStream)
	handle("GET /v1/policies", rt.handlePolicies)
	handle("GET /metrics", rt.handleMetrics)
	handle("GET /healthz", rt.handleHealthz)
	return rt, nil
}

// normalizeBackend trims a trailing slash so ring identity and client
// base agree however the URL was written.
func normalizeBackend(raw string) string {
	for len(raw) > 0 && raw[len(raw)-1] == '/' {
		raw = raw[:len(raw)-1]
	}
	return raw
}

// Handler returns the route table, panic-contained and instrumented.
func (rt *Router) Handler() http.Handler { return rt.mux }

// countRequest and countPanic are the single registration sites of
// their counters (solarvet metricname rule), reported by the middleware
// and the sweep's per-cell recover.
func (rt *Router) countRequest() { rt.reg.Add(MetricRequests, 1) }
func (rt *Router) countPanic()   { rt.reg.Add(MetricPanics, 1) }

// Metrics snapshots the router's own registry (the fleet-wide merge is
// served by /metrics).
func (rt *Router) Metrics() obs.Snapshot { return rt.reg.Snapshot() }

// Start launches the health prober under ctx; it stops when ctx dies or
// Close is called. Call at most once.
func (rt *Router) Start(ctx context.Context) {
	rt.wg.Add(1)
	go rt.probeLoop(ctx)
}

// StartDrain moves the router into its draining state: /healthz starts
// failing and new work is refused; in-flight requests keep running.
func (rt *Router) StartDrain() { rt.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// Close stops the health prober and flushes the access log. Call it
// after the HTTP listener has drained.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
	if rt.cfg.AccessLog != nil {
		return rt.cfg.AccessLog.Flush()
	}
	return nil
}

// Healthy returns how many backends are currently in routing.
func (rt *Router) Healthy() int {
	n := 0
	for _, b := range rt.backends {
		if b.healthy.Load() {
			n++
		}
	}
	return n
}

// setHealthyGauge mirrors the healthy-backend count into the registry
// (single Set site for the gauge).
func (rt *Router) setHealthyGauge() {
	rt.reg.Set(MetricBackendsHealthy, float64(rt.Healthy()))
}

// probeLoop drives the eject/re-admit state machine, one round per
// jittered ProbeInterval. probeRand is owned by this goroutine alone.
func (rt *Router) probeLoop(ctx context.Context) {
	defer rt.wg.Done()
	t := time.NewTimer(rt.nextProbeDelay())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-rt.done:
			return
		case <-t.C:
			rt.probeAll(ctx)
			t.Reset(rt.nextProbeDelay())
		}
	}
}

// nextProbeDelay draws one probe period: ProbeInterval spread uniformly
// over [1−ProbeJitter, 1+ProbeJitter]. The draw is deterministic in
// Config.Seed; only probeLoop (or a test that never starts the prober)
// may call it.
func (rt *Router) nextProbeDelay() time.Duration {
	j := rt.cfg.ProbeJitter
	if j <= 0 {
		return rt.cfg.ProbeInterval
	}
	f := 1 + j*(2*rt.probeRand.Float64()-1)
	return time.Duration(f * float64(rt.cfg.ProbeInterval))
}

// probeAll probes every backend once. A passing probe clears the
// failure streak and re-admits an ejected backend; FailThreshold
// consecutive failures eject a serving one.
func (rt *Router) probeAll(ctx context.Context) {
	changed := false
	for _, b := range rt.backends {
		pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
		err := b.cli.Healthz(pctx)
		cancel()
		if err == nil {
			b.fails.Store(0)
			if !b.healthy.Swap(true) {
				rt.reg.Add(MetricReadmissions, 1)
				changed = true
			}
			continue
		}
		if b.fails.Add(1) >= int32(rt.cfg.FailThreshold) && b.healthy.Swap(false) {
			rt.reg.Add(MetricEjections, 1)
			changed = true
		}
	}
	if changed {
		rt.setHealthyGauge()
	}
}

// ownersFor resolves the key's candidate backends: the ring's distinct
// owner order with ejected backends filtered out. An empty result means
// the whole fleet is unhealthy.
func (rt *Router) ownersFor(key string) []*backend {
	idxs := rt.ring.owners(key, len(rt.backends))
	out := make([]*backend, 0, len(idxs))
	for _, i := range idxs {
		if rt.backends[i].healthy.Load() {
			out = append(out, rt.backends[i])
		}
	}
	return out
}

// healthyBackends returns the healthy backends in declaration order
// (for endpoints that are not key-addressed: policies, metrics).
func (rt *Router) healthyBackends() []*backend {
	out := make([]*backend, 0, len(rt.backends))
	for _, b := range rt.backends {
		if b.healthy.Load() {
			out = append(out, b)
		}
	}
	return out
}
